(* What one workload run hands back to pbench.ml. *)

type t = {
  attempted : int;
  failed : int;
  setup_s : float list;  (** one entry per repeated set-up *)
  pass_s : float list;  (** wall time of each untraced timed pass *)
  op_ms : float list list;  (** per untraced pass: the latency of each of its operations *)
  rss_mb : float list;  (** per pass: peak resident set of the process doing the work *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  circuits : (string * string) list;  (** generated circuit name -> Generate.digest *)
}

(* Assemble a result from timed passes whose kept output is the pass's
   operation latencies (ms) and one check result per operation. *)
let of_passes ~setup_s ~layers ~circuits passes =
  let checks = List.concat_map (fun p -> snd p.Pb_util.out) passes in
  { attempted = List.length checks;
    failed = List.length (List.filter not checks);
    setup_s;
    pass_s = Pb_util.walls passes;
    op_ms = List.map (fun p -> fst p.Pb_util.out) passes;
    rss_mb = List.map (fun p -> p.Pb_util.rss_mb) passes;
    layers;
    circuits }

(* Pinned workloads run each circuit of a pass under one of sixteen
   seeds, so that every result can be checked against results recorded
   from the reference build.  Circuit [i] starts at a seed drawn from
   the run seed and [i], and takes the next seed in each later pass:
   a run of a few passes averages over many (circuit, seed) inputs, and
   no circuit repeats a seed within sixteen passes. *)
let pinned_seeds = List.init 16 (fun i -> i + 1)
let pinned_seed s = 1 + (((s mod 16) + 16) mod 16)
let item_seed ~seed k i = pinned_seed (Pb_util.pass_seed seed i + k)

let load_pins file =
  let pins = Hashtbl.create 2048 in
  Pb_util.read_file file |> String.split_on_char '\n'
  |> List.iter (fun l -> if l <> "" then Hashtbl.replace pins l ());
  pins

let write_lines file lines =
  Out_channel.with_open_bin file (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let run_config ~seed ~jobs =
  Run_config.default |> Run_config.with_seed seed |> Run_config.with_jobs jobs

(* Set up [n] times and keep the last set-up: the median of several
   set-ups is what [setup_s] reports. *)
let repeat_setup n f =
  let rec go i acc =
    let v, dt = Pb_util.time f in
    if i >= n then (v, List.rev (dt :: acc)) else go (i + 1) (dt :: acc)
  in
  go 1 []

module Reg = struct
  (* Readers over the program's existing [Util.Metrics] registry. *)
  let hist_total reg name =
    List.fold_left
      (fun acc h -> if Util.Metrics.histogram_name h = name then acc +. Util.Metrics.total h else acc)
      0.0 (Util.Metrics.histograms reg)

  let span_total reg name = hist_total reg (Util.Metrics.span_prefix ^ name)

  let counter reg name =
    List.fold_left
      (fun acc c -> if Util.Metrics.counter_name c = name then acc + Util.Metrics.count c else acc)
      0 (Util.Metrics.counters reg)
end

(* Run [f] under a live tracer and the benchmark's own span recorder,
   from a compacted heap like every untraced pass; returns [f]'s result
   and the registry it filled. *)
let traced f =
  Gc.compact ();
  let tracer = Util.Trace.make () in
  Pb_spans.enabled := true;
  let r = Util.Trace.with_current tracer f in
  Pb_spans.enabled := false;
  (r, Util.Trace.metrics tracer)

(* Fresh preparations seen during a traced pass, for the U-size and
   ADI-throughput metrics. *)
type prepared = { mutable faults_x_u : float; mutable u_sizes : float list }

let new_prepared () = { faults_x_u = 0.0; u_sizes = [] }

let note_setup p (s : Pipeline.setup) =
  let u = float_of_int (Patterns.count s.Pipeline.selection.Adi_index.u) in
  p.faults_x_u <- p.faults_x_u +. (float_of_int (Fault_list.count s.Pipeline.faults) *. u);
  p.u_sizes <- u :: p.u_sizes

(* Every first-detection claim re-checked by the scalar reference
   simulator, an oracle independent of the engine's fault simulation. *)
let detections_hold faults (e : Engine.result) =
  let circuit = Fault_list.circuit faults in
  let ok = ref true in
  Array.iteri
    (fun f t ->
      if t >= 0 && !ok then
        ok :=
          t < Patterns.count e.Engine.tests
          && Refsim.detects circuit (Fault_list.get faults f) (Patterns.vector e.Engine.tests t))
    e.Engine.detected_by;
  !ok

(* The per-layer metrics of the ADI/ATPG pipeline layers, read from the
   benchmark's spans and the program's registry after one traced pass. *)
let pipeline_layers reg prep =
  let mw name = Pb_spans.total_words name /. 1e6 in
  let engine_s = Pb_spans.total_s "engine" in
  let abort_s = Reg.hist_total reg "engine.gen_s.aborted" in
  let adi_s = Reg.span_total reg "prepare.adi" in
  let count name = float_of_int (Reg.counter reg name) in
  let committed = count "engine.spec.committed" in
  [ ("parse.s", Pb_spans.total_s "parse");
    ("prepare.s", Pb_spans.total_s "prepare");
    ("prepare.collapse.s", Reg.span_total reg "prepare.collapse");
    ("prepare.select_u.s", Reg.span_total reg "prepare.select_u");
    ("prepare.adi.s", adi_s);
    ("prepare.alloc_mw", mw "prepare");
    ("select_u.u_size", Pb_util.mean prep.u_sizes);
    ("adi.pairs_per_s", Pb_util.ratio prep.faults_x_u adi_s);
    ("order.s", Pb_spans.total_s "order");
    ("order.alloc_mw", mw "order");
    ("engine.s", engine_s);
    ("engine.alloc_mw", mw "engine");
    ("engine.tests", count "engine.tests");
    ("engine.untestable", count "engine.untestable");
    ("engine.aborted", count "engine.aborted");
    ("podem.decisions", count "podem.decisions");
    ("podem.backtracks", count "podem.backtracks");
    ("podem.implications", count "podem.implications");
    ("faultsim.propagations", count "faultsim.propagations");
    ("engine.abort_s", abort_s);
    ("engine.abort_share", Pb_util.ratio abort_s engine_s);
    (* Every dispatched speculative search is either committed or wasted. *)
    ( "engine.spec_useful_ratio",
      Pb_util.ratio committed (committed +. count "engine.spec.wasted") );
    ("coverage.s", Pb_spans.total_s "coverage") ]

(* Self time of every span name the benchmark records. *)
let span_names =
  [ "pass"; "op"; "parse"; "prepare"; "order"; "engine"; "coverage"; "generate"; "irredundant";
    "client.call"; "session.handle_frame"; "protocol.decode"; "protocol.encode";
    "store.find_or_prepare" ]

let self_layers () =
  let self = Pb_spans.self_times () in
  List.map
    (fun n -> ("self_s." ^ n, Option.value ~default:0.0 (Hashtbl.find_opt self n)))
    span_names
