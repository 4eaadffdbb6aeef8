(* service-mix: request round trips through Service.Client -> adi-server
   (--workers 2) -> Session -> Store.  A closed loop over two
   connections, because adi-client callers wait for each reply.
   Netlists travel inline.  The mix touches more (circuit, seed) setups
   than the store holds, so cold prepares, inserts and evictions sit
   beside warm hits.  One operation is one request. *)

module Json = Util.Json
module Protocol = Service.Protocol
module Client = Service.Client

let server_exe = "_build/default/bin/adi_server.exe"
let capacity = 8
let connections = 2
let ops = [ "load"; "adi"; "order"; "atpg"; "diagnose" ]

(* Requests per circuit for each op, split over three parameter seeds:
   one hot seed and two cold ones.  Nine circuits at the hot seed
   already exceed the store's capacity, and the cold seeds force
   further prepares and evictions.  The composition is fixed; the run
   seed picks the parameter seeds, and each pass sends the requests in
   its own order of arrival. *)
let mix ~tiny =
  let small = [ "syn208"; "syn298" ] in
  if tiny then
    [ ("load", small, [ 2; 1; 1 ]); ("adi", small, [ 2; 1; 1 ]); ("order", small, [ 1 ]);
      ("atpg", small, [ 1 ]); ("diagnose", small, [ 1 ]) ]
  else
    let all =
      [ "syn208"; "syn298"; "syn344"; "syn382"; "syn400"; "syn420"; "syn510"; "syn526"; "syn641" ]
    in
    [ ("load", all, [ 51; 4; 2 ]); ("adi", all, [ 38; 3; 2 ]); ("order", all, [ 6 ]);
      ("atpg", [ "syn208"; "syn298"; "syn344"; "syn382"; "syn400" ], [ 6 ]);
      ("diagnose", [ "syn208"; "syn298"; "syn344" ], [ 6 ]) ]

let circuits_of_mix m = List.sort_uniq compare (List.concat_map (fun (_, cs, _) -> cs) m)

type request = { idx : int; op : string; key : string; call : Protocol.call; frame : string }

let params ~(fx : Pb_fixtures.t) ~op ~pseed ~jobs =
  [ ("netlist", Json.Str fx.Pb_fixtures.text); ("seed", Json.Int pseed); ("jobs", Json.Int jobs) ]
  @ if op = "diagnose" then [ ("fails", Json.Arr [ Json.Int 0 ]); ("limit", Json.Int 5) ] else []

let build_requests ~seed ~jobs ~tiny fixtures =
  let base = 1 + Util.Rng.int (Util.Rng.create (0x5e71ce + seed)) 1000 in
  let pseeds = [ base; base + 1; base + 2 ] in
  let reqs =
    List.concat_map
      (fun (op, circuits, per) ->
        List.concat_map
          (fun name ->
            let fx = List.find (fun (f : Pb_fixtures.t) -> f.Pb_fixtures.name = name) fixtures in
            List.concat
              (List.mapi
                 (fun k count ->
                   let pseed = List.nth pseeds k in
                   List.init count (fun _ -> (op, name, pseed, params ~fx ~op ~pseed ~jobs)))
                 per))
          circuits)
      (mix ~tiny)
    |> Array.of_list
  in
  Array.mapi
    (fun idx (op, name, pseed, ps) ->
      let call =
        match Protocol.op_of_name op with
        | Some o -> Protocol.Single (o, ps)
        | None -> invalid_arg op
      in
      let frame = Json.to_string (Protocol.request_to_json { Protocol.id = idx + 1; call }) in
      { idx; op; key = Printf.sprintf "%s/%s/%d" op name pseed; call; frame })
    reqs

(* Replies are compared with every "cached" field removed: whether a
   setup or dictionary came from the cache is the only part of a reply
   the cache may change. *)
let rec strip_cached = function
  | Json.Obj fields ->
      Json.Obj (List.filter_map (fun (k, v) -> if k = "cached" then None else Some (k, strip_cached v)) fields)
  | Json.Arr xs -> Json.Arr (List.map strip_cached xs)
  | j -> j

let canonical = function
  | Ok (Protocol.Result j) -> Some (Json.to_string (strip_cached j))
  | Ok _ | Error _ -> None

(* Expected replies from a pristine in-process session, one per
   distinct request. *)
let expected_replies ~jobs reqs =
  let session = Service.Session.create ~capacity:64 ~jobs ~tracer:Util.Trace.null () in
  let tbl = Hashtbl.create 128 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem tbl r.key) then
        let resp = Service.Session.handle session { Protocol.id = r.idx + 1; call = r.call } in
        match canonical (Result.map_error (fun _ -> ()) resp.Protocol.payload) with
        | Some s -> Hashtbl.replace tbl r.key s
        | None -> failwith ("pristine session refused " ^ r.key))
    reqs;
  tbl

(* --- the server process ------------------------------------------- *)

type server = { pid : int; address : Service.Server.address }

let run_dir = ".perfbench_run"

let start_server ~jobs =
  if not (Sys.file_exists server_exe) then failwith (server_exe ^ " is not built");
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat run_dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) (Random.bits ())) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process server_exe
      [| server_exe; "--socket"; path; "--workers"; string_of_int connections;
         "--jobs"; string_of_int jobs; "--capacity"; string_of_int capacity |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let address = Service.Server.Unix_socket path in
  let deadline = Pb_util.now () +. 30.0 in
  let rec wait () =
    let c = Client.create address in
    let ok = match Client.health c () with Ok _ -> true | Error _ -> false in
    Client.close c;
    if not ok then
      if Pb_util.now () > deadline then failwith "adi-server did not come up"
      else (Unix.sleepf 0.02; wait ())
  in
  wait ();
  { pid; address }

(* Ask the server to drain and wait for it; one that has not exited
   after 10 s is killed.  Never raises. *)
let stop_server s =
  let c = Client.create s.address in
  ignore (Client.shutdown c ~timeout_s:5.0 ());
  Client.close c;
  let deadline = Pb_util.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Pb_util.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Pb_util.waitpid s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* Ops sent once per circuit when a server comes up, so that lazy
   start-up work is not timed. *)
let warm s fixtures ~jobs =
  let c = Client.create s.address in
  List.iter
    (fun (fx : Pb_fixtures.t) ->
      ignore (Client.load c (params ~fx ~op:"load" ~pseed:0 ~jobs)))
    fixtures;
  Client.close c

(* --- the closed loop ---------------------------------------------- *)

type outcome = {
  replies : (Protocol.reply, Util.Diagnostics.t) result array;
  t0 : float array;
  t1 : float array;
  wall_s : float;
}

(* The arrival order of pass [k]. *)
let arrival_order ~seed k reqs =
  let order = Array.init (Array.length reqs) Fun.id in
  Util.Rng.shuffle (Util.Rng.create (Pb_util.pass_seed seed k)) order;
  order

(* Both lanes take the next request in [order] as soon as their previous
   reply is in; results are stored by request index. *)
let closed_loop s reqs order =
  let n = Array.length reqs in
  let replies = Array.make n (Error (Util.Diagnostics.make Util.Diagnostics.Io_error "not sent")) in
  let t0 = Array.make n 0.0 and t1 = Array.make n 0.0 in
  let next = Atomic.make 0 in
  let lane () =
    let c = Client.create s.address in
    let rec go () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        let i = order.(k) in
        t0.(i) <- Pb_util.now ();
        replies.(i) <- Client.call c reqs.(i).call;
        t1.(i) <- Pb_util.now ();
        go ()
      end
    in
    go ();
    Client.close c
  in
  let start = Pb_util.now () in
  let domains = List.init connections (fun _ -> Domain.spawn lane) in
  List.iter Domain.join domains;
  { replies; t0; t1; wall_s = Pb_util.now () -. start }

let latencies_ms o = Array.to_list (Array.mapi (fun i t -> (o.t1.(i) -. t) *. 1000.0) o.t0)

let replies_ok expected reqs o ~corrupt =
  Array.mapi
    (fun i r ->
      let got = canonical (Result.map_error (fun _ -> ()) o.replies.(i)) in
      let got = if corrupt && i = 0 then Option.map (fun s -> s ^ " ") got else got in
      got = Hashtbl.find_opt expected r.key)
    reqs
  |> Array.to_list

let server_counters s =
  let c = Client.create s.address in
  let get f = match f () with Ok j -> j | Error _ -> Json.Null in
  let stats = get (fun () -> Client.stats c ()) and health = get (fun () -> Client.health c ()) in
  Client.close c;
  let int j k = float_of_int (Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int)) in
  let hits = int stats "hits" and misses = int stats "misses" in
  let dh = int stats "dict_hits" and dm = int stats "dict_misses" in
  [ ("store.hit_ratio", Pb_util.ratio hits (hits +. misses));
    ("store.evictions", int stats "evictions");
    ("dict.hit_ratio", Pb_util.ratio dh (dh +. dm));
    ("server.shed", int health "shed");
    ("server.lane_restarts", int health "lane_restarts") ]

(* --- in-process replay for the per-layer breakdown ----------------- *)

(* Replay the traced pass's request sequence through
   Session.handle_frame on one lane, timing the protocol, parse and store
   layers around it from the outside.  The store layer is timed on a
   shadow store of the server's capacity so that the session's own cache
   sees the same sequence. *)
let replay ~jobs ~prep reqs order =
  let session = Service.Session.create ~capacity ~jobs () in
  let shadow = Service.Store.create ~capacity () in
  let conn = Service.Session.new_conn () in
  let handle_ms = Array.make (Array.length reqs) 0.0 in
  let decode = ref [] and encode = ref [] and store_miss = ref [] in
  Array.iter
    (fun i ->
      let r = reqs.(i) in
      let rid = string_of_int (r.idx + 1) in
      let _, dt =
        Pb_util.time (fun () ->
            Pb_spans.with_ ~req:rid "protocol.decode" (fun () ->
                Protocol.request_of_json (Json.parse r.frame)))
      in
      decode := (dt *. 1000.0) :: !decode;
      let reply, dt =
        Pb_util.time (fun () ->
            Pb_spans.with_ ~req:rid "session.handle_frame" (fun () ->
                fst (Service.Session.handle_frame session ~conn r.frame)))
      in
      handle_ms.(r.idx) <- dt *. 1000.0;
      (match Protocol.response_of_json (Json.parse reply) with
      | Ok resp ->
          let _, dt =
            Pb_util.time (fun () ->
                Pb_spans.with_ ~req:rid "protocol.encode" (fun () ->
                    Json.to_string (Protocol.response_to_json resp)))
          in
          encode := (dt *. 1000.0) :: !encode
      | Error _ -> ());
      match r.call with
      | Protocol.Single (_, ps) ->
          let text = Option.bind (List.assoc_opt "netlist" ps) Json.to_str |> Option.get in
          let circuit =
            Pb_spans.with_ ~req:rid "parse" (fun () -> Bench_format.parse_string ~title:"netlist" text)
          in
          let pseed = Option.bind (List.assoc_opt "seed" ps) Json.to_int |> Option.get in
          let cfg = Pb_result.run_config ~seed:pseed ~jobs in
          let (setup, cached), dt =
            Util.Trace.with_current Util.Trace.null (fun () ->
                Pb_util.time (fun () ->
                    Pb_spans.with_ ~req:rid "store.find_or_prepare" (fun () ->
                        Service.Store.find_or_prepare shadow cfg circuit)))
          in
          if not cached then begin
            Pb_result.note_setup prep setup;
            store_miss := (dt *. 1000.0) :: !store_miss
          end
      | _ -> ())
    order;
  (handle_ms, Pb_util.median !decode, Pb_util.median !encode, Pb_util.mean !store_miss)

let service_layers ~jobs reqs order traced counters =
  let prep = Pb_result.new_prepared () in
  let (handle_ms, decode_ms, encode_ms, prepare_ms), reg =
    Pb_result.traced (fun () -> replay ~jobs ~prep reqs order)
  in
  let rtt = latencies_ms traced in
  let by_op op f = List.filteri (fun i _ -> reqs.(i).op = op) f in
  let per_op =
    List.concat_map
      (fun op ->
        let l = by_op op rtt in
        [ (Printf.sprintf "rtt_ms.%s.p50" op, Pb_util.median l);
          (Printf.sprintf "rtt_ms.%s.p99" op, Pb_util.percentile 99.0 l);
          (Printf.sprintf "requests.%s" op, float_of_int (List.length l));
          (Printf.sprintf "handle_ms.%s" op, Pb_util.median (by_op op (Array.to_list handle_ms))) ])
      ops
  in
  let transport = List.mapi (fun i r -> r -. handle_ms.(i)) rtt in
  let pipeline =
    List.map
      (fun (name, v) ->
        match name with
        | "prepare.s" -> (name, Pb_result.Reg.span_total reg "pipeline.prepare")
        | "order.s" -> (name, Pb_result.Reg.span_total reg "pipeline.order")
        | "engine.s" -> (name, Pb_result.Reg.span_total reg "pipeline.engine")
        | _ -> (name, v))
      (Pb_result.pipeline_layers reg prep)
  in
  per_op @ pipeline @ counters
  @ [ ("transport_ms", Pb_util.median transport); ("protocol.decode_ms", decode_ms);
      ("protocol.encode_ms", encode_ms); ("store.prepare_ms", prepare_ms) ]

(* Each client call of the traced pass becomes a span under one root
   span, from the timestamps the lanes recorded. *)
let add_call_spans reqs o =
  let root =
    Pb_spans.add ~name:"pass" ~req:"" ~t0:(Array.fold_left Float.min infinity o.t0)
      ~t1:(Array.fold_left Float.max 0.0 o.t1) ()
  in
  Array.iteri
    (fun i r ->
      ignore
        (Pb_spans.add ~parent:root ~name:"client.call" ~req:(string_of_int (r.idx + 1))
           ~t0:o.t0.(i) ~t1:o.t1.(i) ()))
    reqs

let run ~seed ~seconds ~jobs ~trace ~tiny ~corrupt =
  let m = mix ~tiny in
  let servers = ref [] in
  let stop_all () =
    List.iter stop_server !servers;
    servers := []
  in
  let launch fixtures =
    let s = start_server ~jobs in
    servers := s :: !servers;
    warm s fixtures ~jobs;
    s
  in
  Fun.protect ~finally:stop_all @@ fun () ->
  let (fixtures, reqs, expected, s), setup_s =
    Pb_result.repeat_setup 3 (fun () ->
        let fixtures = Pb_fixtures.load (circuits_of_mix m) in
        let reqs = build_requests ~seed ~jobs ~tiny fixtures in
        let expected = expected_replies ~jobs reqs in
        (fixtures, reqs, expected, launch fixtures))
  in
  (* Only the last set-up's server serves the timed passes. *)
  List.iter (fun s' -> if s' != s then stop_server s') !servers;
  servers := [ s ];
  let check k o = (latencies_ms o, replies_ok expected reqs o ~corrupt:(corrupt && k = 0)) in
  let passes =
    Pb_util.timed_passes ~pid:(string_of_int s.pid) ~seconds ~nominal_s:6.5 ~check (fun k ->
        closed_loop s reqs (arrival_order ~seed k reqs))
  in
  let layers =
    if not trace then []
    else begin
      (* Pass 0's arrival order on a fresh server, as the first timed pass
         had. *)
      let s2 = launch fixtures in
      let order = arrival_order ~seed 0 reqs in
      let traced = closed_loop s2 reqs order in
      add_call_spans reqs traced;
      let layers = service_layers ~jobs reqs order traced (server_counters s2) in
      (("trace.overhead_s", traced.wall_s -. List.hd (Pb_util.walls passes)) :: layers)
      @ Pb_result.self_layers ()
    end
  in
  Pb_result.of_passes ~setup_s ~layers ~circuits:[] passes
