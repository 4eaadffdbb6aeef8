(* paper-suite: the paper's own experiment.  Every small suite circuit
   goes through Pipeline.prepare, then Ordering.order and Engine.run
   for all six orders, then Coverage.ave.  One operation is one order
   over the whole suite: order, engine and AVE on each prepared
   circuit.  That is the unit the paper compares orders by; a single
   (circuit, order) run ranges from milliseconds to half a second with
   the circuit and its seed, so its percentiles jump between circuits. *)

let pins_file = "perfbench/pins/paper-suite.txt"

type prepared = {
  name : string;
  seed : int;  (** the pinned configuration seed it runs under *)
  setup : Pipeline.setup;
  ecfg : Engine.config;
}

type run = { circuit : prepared; kind : Ordering.kind; engine : Engine.result; ave : float }

(* One order over the suite, with its latency. *)
type op = { runs : run list; ms : float }

let prepare ?(prep = Pb_result.new_prepared ()) cfg (fx : Pb_fixtures.t) =
  let circuit =
    Pb_spans.with_ ~req:fx.Pb_fixtures.name "parse" (fun () ->
        Bench_format.parse_string ~title:fx.Pb_fixtures.name fx.Pb_fixtures.text)
  in
  let setup = Pb_spans.with_ ~req:fx.Pb_fixtures.name "prepare" (fun () -> Pipeline.prepare cfg circuit) in
  Pb_result.note_setup prep setup;
  { name = fx.Pb_fixtures.name; seed = cfg.Run_config.seed; setup; ecfg = Run_config.engine_config cfg }

let run_one kind (c : prepared) =
  let faults = c.setup.Pipeline.faults in
  let order = Pb_spans.with_ "order" (fun () -> Ordering.order kind c.setup.Pipeline.adi) in
  let engine = Pb_spans.with_ "engine" (fun () -> Engine.run ~config:c.ecfg faults ~order) in
  let ave =
    Pb_spans.with_ "coverage" (fun () -> Coverage.ave (Coverage.of_engine_result faults engine))
  in
  { circuit = c; kind; engine; ave }

(* Prepare every circuit (circuit [i] under [cfg_of i]), then run each
   order over all of them. *)
let experiment ?prep ~cfg_of fixtures =
  let circuits = List.mapi (fun i fx -> prepare ?prep (cfg_of i) fx) fixtures in
  List.map
    (fun kind ->
      let runs, dt =
        Pb_util.time (fun () ->
            Pb_spans.with_ ~req:(Ordering.to_string kind) "op" (fun () ->
                List.map (run_one kind) circuits))
      in
      { runs; ms = dt *. 1000.0 })
    Ordering.all

let pin_line (r : run) =
  Printf.sprintf "%d %s %s %d %h %s" r.circuit.seed r.circuit.name (Ordering.to_string r.kind)
    (Patterns.count r.engine.Engine.tests) r.ave
    (Pb_util.md5_lines (Array.to_list (Patterns.to_strings r.engine.Engine.tests)))

let run_ok pins r =
  Hashtbl.mem pins (pin_line r) && Pb_result.detections_hold r.circuit.setup.Pipeline.faults r.engine

(* An operation is correct when every one of its runs is. *)
let op_ok pins op = List.for_all (run_ok pins) op.runs

(* Flip the first bit of the first test: the pinned digest (and, for
   the faults that test was credited with, the oracle) must catch it. *)
let corrupt_op op =
  match op.runs with
  | r :: rest ->
      let strs = Patterns.to_strings r.engine.Engine.tests in
      let s = Bytes.of_string strs.(0) in
      Bytes.set s 0 (if Bytes.get s 0 = '0' then '1' else '0');
      strs.(0) <- Bytes.to_string s;
      let engine = { r.engine with Engine.tests = Patterns.of_strings strs } in
      { op with runs = { r with engine } :: rest }
  | [] -> op

let run ~seed ~seconds ~jobs ~trace ~tiny ~corrupt =
  let cfg k i = Pb_result.run_config ~seed:(Pb_result.item_seed ~seed k i) ~jobs in
  let names = if tiny then [ "syn208"; "syn298" ] else Pb_fixtures.names in
  let (fixtures, pins), setup_s =
    Pb_result.repeat_setup 9 (fun () -> (Pb_fixtures.load names, Pb_result.load_pins pins_file))
  in
  let pass ?prep k = experiment ?prep ~cfg_of:(cfg k) fixtures in
  let check k ops =
    let ops = match ops with op :: rest when corrupt && k = 0 -> corrupt_op op :: rest | l -> l in
    (List.map (fun op -> op.ms) ops, Pb_util.map_on_two_domains (op_ok pins) ops)
  in
  let passes = Pb_util.timed_passes ~seconds ~nominal_s:6.5 ~check pass in
  let layers =
    if not trace then []
    else begin
      let prep = Pb_result.new_prepared () in
      let (_, traced_s), reg =
        Pb_result.traced (fun () ->
            Pb_util.time (fun () ->
                Pb_spans.with_ "pass" (fun () -> pass ~prep 0)))
      in
      (("trace.overhead_s", traced_s -. List.hd (Pb_util.walls passes))
       :: Pb_result.pipeline_layers reg prep)
      @ Pb_result.self_layers ()
    end
  in
  Pb_result.of_passes ~setup_s ~layers ~circuits:[] passes

(* One line per (pinned seed, circuit, order) on the current build. *)
let write_pins ~jobs =
  let fixtures = Pb_fixtures.load Pb_fixtures.names in
  Pb_result.write_lines pins_file
    (List.concat_map
       (fun s ->
         let ops = experiment ~cfg_of:(fun _ -> Pb_result.run_config ~seed:s ~jobs) fixtures in
         List.concat
           (List.mapi (fun i _ -> List.map (fun op -> pin_line (List.nth op.runs i)) ops) fixtures))
       Pb_result.pinned_seeds)
