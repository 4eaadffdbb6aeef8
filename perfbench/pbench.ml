(* The benchmark's entry point: runs one workload and prints its metrics.

     pbench.exe run --workload W --seed N --seconds S --trace 0|1
                    [--jobs J] [--tiny] [--corrupt]
     pbench.exe fixtures     rebuild perfbench/fixtures from Circuits.Suite
     pbench.exe pins         re-record the paper-suite and irredundant pins

   Run it from the repository root.  The last line of a run is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end set; with --trace 1 a
   separate traced run gives the per-layer set and the spans are
   written to .perfbench_out/. *)

module Json = Util.Json

let workloads =
  [ ("paper-suite", Pb_paper.run); ("service-mix", Pb_service.run); ("irredundant", Pb_irred.run) ]

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MB"); ("ok_ratio", "ratio");
    ("rtt_p50_ms", "ms"); ("rtt_p99_ms", "ms"); ("req_per_s", "1/s") ]

(* Every per-layer metric is printed on every workload, zero where the
   layer does not run, so the name set never depends on the workload,
   the host or --jobs. *)
let per_layer =
  let s n = (n, "s") and c n = (n, "count") and r n = (n, "ratio") and ms n = (n, "ms") in
  let mw n = (n, "Mwords") in
  [ r "failed_ratio"; s "trace.overhead_s"; s "parse.s"; s "prepare.s"; s "prepare.collapse.s";
    s "prepare.select_u.s"; s "prepare.adi.s"; mw "prepare.alloc_mw"; c "select_u.u_size";
    ("adi.pairs_per_s", "1/s"); s "order.s"; mw "order.alloc_mw"; s "engine.s";
    mw "engine.alloc_mw"; c "engine.tests"; c "engine.untestable"; c "engine.aborted";
    c "podem.decisions"; c "podem.backtracks"; c "podem.implications";
    c "faultsim.propagations"; s "engine.abort_s"; r "engine.abort_share";
    r "engine.spec_useful_ratio"; s "coverage.s"; s "irredundant.s"; c "irredundant.rounds";
    c "irredundant.removed"; c "irredundant.aborted_last"; mw "irredundant.alloc_mw";
    s "generate.s" ]
  @ List.concat_map
      (fun op ->
        [ ms (Printf.sprintf "rtt_ms.%s.p50" op); ms (Printf.sprintf "rtt_ms.%s.p99" op);
          c (Printf.sprintf "requests.%s" op); ms (Printf.sprintf "handle_ms.%s" op) ])
      Pb_service.ops
  @ [ ms "transport_ms"; ms "protocol.decode_ms"; ms "protocol.encode_ms"; r "store.hit_ratio";
      c "store.evictions"; ms "store.prepare_ms"; r "dict.hit_ratio"; c "server.shed";
      c "server.lane_restarts" ]
  @ List.map (fun n -> s ("self_s." ^ n)) Pb_result.span_names

let metric_json catalogue values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (List.assoc_opt name values) in
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
       catalogue)

(* Every time metric is taken per pass and the run reports the median
   pass, so one pass slowed by the host does not move it. *)
let end_to_end_values (r : Pb_result.t) =
  let per_pass f = Pb_util.median (List.map2 f r.Pb_result.op_ms r.Pb_result.pass_s) in
  [ ("setup_s", Pb_util.median r.Pb_result.setup_s);
    ("wall_s", Pb_util.median r.Pb_result.pass_s);
    ("peak_rss_mb", List.fold_left Float.max 0.0 r.Pb_result.rss_mb);
    ( "ok_ratio",
      1.0 -. Pb_util.ratio (float_of_int r.Pb_result.failed) (float_of_int r.Pb_result.attempted) );
    ("rtt_p50_ms", per_pass (fun ops _ -> Pb_util.median ops));
    ("rtt_p99_ms", per_pass (fun ops _ -> Pb_util.percentile 99.0 ops));
    ("req_per_s", per_pass (fun ops wall -> Pb_util.ratio (float_of_int (List.length ops)) wall)) ]

let out_dir = ".perfbench_out"

let run ~workload ~seed ~seconds ~trace ~jobs ~tiny ~corrupt =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> failwith (Printf.sprintf "unknown workload %S" workload)
  in
  let r = f ~seed ~seconds ~jobs ~trace ~tiny ~corrupt in
  let stamp =
    Pb_host.stamp ~workload ~seed ~jobs ~block_width:Run_config.default.Run_config.block_width
      ~circuits:r.Pb_result.circuits
  in
  let failed_ratio =
    Pb_util.ratio (float_of_int r.Pb_result.failed) (float_of_int r.Pb_result.attempted)
  in
  let metrics =
    if trace then begin
      let values = ("failed_ratio", failed_ratio) :: r.Pb_result.layers in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n per_layer) then failwith ("undeclared per-layer metric " ^ n))
        values;
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Pb_spans.write (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
      metric_json per_layer values
    end
    else metric_json end_to_end (end_to_end_values r)
  in
  let show fmt l = String.concat " " (List.map (Printf.sprintf fmt) l) in
  Printf.eprintf "%s: passes %s; peak RSS %s; set-ups %s\n%!" workload
    (show "%.3fs" r.Pb_result.pass_s) (show "%.1fMB" r.Pb_result.rss_mb)
    (show "%.3fs" r.Pb_result.setup_s);
  print_endline ("host " ^ Json.to_string stamp);
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (r.Pb_result.failed = 0)); ("attempted", Json.Int r.Pb_result.attempted);
            ("failed", Json.Int r.Pb_result.failed); ("metrics", metrics) ]))

let usage () =
  prerr_endline
    "usage: pbench.exe run --workload W --seed N --seconds S --trace 0|1 [--jobs J] [--tiny] \
     [--corrupt]\n       pbench.exe fixtures | pins";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
      let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
      let jobs = ref 2 and tiny = ref false and corrupt = ref false in
      let rec parse = function
        | "--workload" :: w :: rest -> workload := w; parse rest
        | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
        | "--seconds" :: n :: rest -> seconds := float_of_string_opt n; parse rest
        | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
        | "--jobs" :: n :: rest -> jobs := int_of_string n; parse rest
        | "--tiny" :: rest -> tiny := true; parse rest
        | "--corrupt" :: rest -> corrupt := true; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      (match (!seed, !seconds, !trace) with
      | Some seed, Some seconds, Some trace when !workload <> "" ->
          run ~workload:!workload ~seed ~seconds ~trace ~jobs:!jobs ~tiny:!tiny ~corrupt:!corrupt
      | _ -> usage ())
  | [ _; "fixtures" ] -> Pb_fixtures.regenerate ()
  | [ _; "pins" ] ->
      Pb_paper.write_pins ~jobs:2;
      Pb_irred.write_pins ()
  | _ -> usage ()
