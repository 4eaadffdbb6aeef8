(* irredundant: suite construction.  Atpg.Irredundant.remove with the
   suite's small-circuit settings on Generate.random circuits shaped
   like the first small suite entries.  One operation is one removal. *)

let pins_file = "perfbench/pins/irredundant.txt"

let profiles ~tiny =
  let n = if tiny then 2 else 8 in
  List.filteri (fun i _ -> i < n) Suite.small

(* Suite settings for small circuits (see Circuits.Suite.build). *)
let remove ~seed c =
  Irredundant.remove ~max_rounds:24 ~backtrack_limit:4096 ~random_vectors:2048 ~seed c

(* The raw circuits are fixed (the suite entries' own first draws):
   drawing new circuits per seed swung the run time by 3x.  The seed
   drives the removal's random-pattern pre-filter instead, which varies
   the faults that reach PODEM while the redundancy proofs stay. *)
let generate (e : Suite.entry) =
  Generate.random ~seed:e.Suite.seed ~name:e.Suite.name
    (Generate.profile ~outputs:e.Suite.pos ~pis:e.Suite.pis ~gates:e.Suite.gates ())

type item = { name : string; seed : int; result : Circuit.t; report : Irredundant.report }

(* One removal per raw circuit; circuit [i] runs under [seed_of i]. *)
let pass ~seed_of raws =
  List.mapi
    (fun i (name, raw) ->
      let seed = seed_of i in
      Pb_util.time (fun () ->
          Pb_spans.with_ ~req:name "op" @@ fun () ->
          let result, report = Pb_spans.with_ "irredundant" (fun () -> remove ~seed raw) in
          { name; seed; result; report }))
    raws

let pin_line it =
  Printf.sprintf "%d %s %s %d %d" it.seed it.name
    (Service.Store.digest_of_circuit it.result)
    it.report.Irredundant.removed it.report.Irredundant.rounds

(* A removal must leave a combinational netlist that Validate raises no
   error on (dangling logic is a warning: removal can orphan inputs),
   and must give the circuit recorded for this seed. *)
let item_ok pins it =
  List.for_all
    (fun d -> d.Util.Diagnostics.severity <> Util.Diagnostics.Error)
    (Validate.diagnostics ~require_combinational:true it.result)
  && Hashtbl.mem pins (pin_line it)

let draw ~tiny = List.map (fun (e : Suite.entry) -> (e.Suite.name, generate e)) (profiles ~tiny)

let run ~seed ~seconds ~jobs:_ ~trace ~tiny ~corrupt =
  let (raws, pins), setup_s =
    Pb_result.repeat_setup 9 (fun () ->
        (Pb_spans.with_ "generate" (fun () -> draw ~tiny), Pb_result.load_pins pins_file))
  in
  let pass k = pass ~seed_of:(Pb_result.item_seed ~seed k) raws in
  let check k timed =
    let items = List.map fst timed in
    (* Hand back the unreduced input in place of the first result. *)
    let items =
      match items with
      | it :: rest when corrupt && k = 0 -> { it with result = List.assoc it.name raws } :: rest
      | l -> l
    in
    (List.map (fun (_, dt) -> dt *. 1000.0) timed, List.map (item_ok pins) items)
  in
  let passes =
    Pb_util.timed_passes ~seconds ~nominal_s:5.0 ~check pass
  in
  let layers =
    if not trace then []
    else begin
      let reports = ref [] in
      let (_, traced_s), _reg =
        Pb_result.traced (fun () ->
            ignore (Pb_spans.with_ "generate" (fun () -> draw ~tiny));
            Pb_util.time (fun () ->
                Pb_spans.with_ "pass" (fun () ->
                    reports :=
                      List.map (fun (it, _) -> it.report) (pass 0))))
      in
      let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 !reports) in
      [ ("trace.overhead_s", traced_s -. List.hd (Pb_util.walls passes));
        ("generate.s", Pb_spans.total_s "generate");
        ("irredundant.s", Pb_spans.total_s "irredundant");
        ("irredundant.rounds", sum (fun r -> r.Irredundant.rounds));
        ("irredundant.removed", sum (fun r -> r.Irredundant.removed));
        ("irredundant.aborted_last", sum (fun r -> r.Irredundant.aborted_last));
        ("irredundant.alloc_mw", Pb_spans.total_words "irredundant" /. 1e6) ]
      @ Pb_result.self_layers ()
    end
  in
  Pb_result.of_passes ~setup_s ~layers
    ~circuits:(List.map (fun (name, c) -> (name, Generate.digest c)) raws)
    passes

(* One line per (pinned seed, circuit) on the current build. *)
let write_pins () =
  let raws = draw ~tiny:false in
  Pb_result.write_lines pins_file
    (List.concat_map
       (fun s -> List.map (fun (it, _) -> pin_line it) (pass ~seed_of:(fun _ -> s) raws))
       Pb_result.pinned_seeds)
