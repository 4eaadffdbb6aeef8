(* The benchmark's own tracer: spans recorded around calls into each
   library layer, kept in memory and written out when the run ends.
   Nothing here reaches inside the program; the only program-side
   instrumentation read is the existing [Util.Metrics] registry. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  req : string;  (** workload item or request id *)
  t0 : float;
  t1 : float;
  words : float;  (** words allocated by the calling domain *)
}

let enabled = ref false
let spans : span list ref = ref []
(* Open spans, innermost first: id and request id. *)
let stack : (int * string) list ref = ref []
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Record a span measured elsewhere (on another domain); returns its id. *)
let add ?(parent = -1) ~name ~req ~t0 ~t1 () =
  let id = fresh_id () in
  spans := { id; parent; name; req; t0; t1; words = 0.0 } :: !spans;
  id

(* [with_ name ~req f] times [f ()] as a child of the innermost open
   span, whose request id it inherits unless [req] is given.  A no-op
   wrapper when tracing is off. *)
let with_ ?(req = "") name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent, req =
      match !stack with (p, r) :: _ -> (p, if req = "" then r else req) | [] -> (-1, req)
    in
    stack := (id, req) :: !stack;
    let w0 = Pb_util.allocated_words () in
    let t0 = Pb_util.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Pb_util.now () in
        let words = Pb_util.allocated_words () -. w0 in
        stack := List.tl !stack;
        spans := { id; parent; name; req; t0; t1; words } :: !spans)
      f
  end

let total_s name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0.0 !spans

let total_words name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.words else acc) 0.0 !spans

(* Self time per span name: each span's duration minus the part of
   its interval that its direct children cover (children may overlap
   when they ran on concurrent client lanes). *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    !spans;
  let covered id =
    let rec merge acc (lo, hi) = function
      | [] -> acc +. (hi -. lo)
      | (a, b) :: rest -> if a <= hi then merge acc (lo, Float.max hi b) rest else merge (acc +. (hi -. lo)) (a, b) rest
    in
    match List.sort compare (Option.value ~default:[] (Hashtbl.find_opt children id)) with
    | [] -> 0.0
    | first :: rest -> merge 0.0 first rest
  in
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.t1 -. s.t0 -. covered s.id in
      Hashtbl.replace self s.name (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    !spans;
  self

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      let open Util.Json in
      output_string oc
        (to_string
           (Obj
              [ ("id", Int s.id); ("parent", Int s.parent); ("name", Str s.name);
                ("req", Str s.req); ("start_s", Float s.t0); ("end_s", Float s.t1);
                ("words", Float (Float.round s.words)) ]));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.id b.id) !spans);
  close_out oc
