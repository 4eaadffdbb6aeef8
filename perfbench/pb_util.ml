(* Timing, statistics and process helpers shared by every workload. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set ("VmHWM") of a process, in MB.  Bigarray arenas
   live outside the OCaml heap, so heap statistics would miss them. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let read_file path = In_channel.with_open_bin path In_channel.input_all

let md5_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Words allocated by the calling domain; pool lanes allocate on their
   own domains and are not counted. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Reset a process's peak resident set to its current size. *)
let reset_peak_rss pid =
  try Out_channel.with_open_text (Printf.sprintf "/proc/%s/clear_refs" pid) (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

type 'a pass = {
  out : 'a;
  wall_s : float;
  rss_mb : float;  (** peak resident set during this pass *)
}

let walls passes = List.map (fun p -> p.wall_s) passes

(* The input seed of draw [k] of a run (a pass, or one circuit of a
   pass): every draw sees other inputs, so the run's medians average
   over several inputs. *)
let pass_seed seed k = Util.Rng.int (Util.Rng.create ((seed * 7919) + k)) 1_000_000

(* Timed passes of a workload whose pass takes about [nominal_s] on the
   reference host: [seconds / nominal_s] passes (at least one), so that
   the amount of work depends only on [seconds].  Only a host more than
   twice as slow as the reference is cut short: no pass starts once the
   timed passes add up to [2 * seconds].  [f k] is pass [k];
   [check k out] runs after the pass, outside its timing, and only its
   result is kept, so every pass starts from the same live heap.  Before each pass
   the heap is compacted (when the work runs in this process) and the
   peak resident set of [pid] is reset to its current size, so a pass's
   peak is reached during that pass. *)
let timed_passes ?(pid = "self") ~seconds ~nominal_s ~check f =
  let n = max 1 (Float.to_int (Float.round (seconds /. nominal_s))) in
  let rec go k acc =
    if k >= n || sum (walls acc) >= 2.0 *. seconds then List.rev acc
    else begin
      if pid = "self" then Gc.compact ();
      reset_peak_rss pid;
      let out, wall_s = time (fun () -> f k) in
      let rss_mb = peak_rss_mb pid in
      go (k + 1) ({ out = check k out; wall_s; rss_mb } :: acc)
    end
  in
  go 0 []

(* [List.map f l] with the second half of [l] mapped on another
   domain: for output checks, which run outside the timed region and
   share nothing mutable. *)
let map_on_two_domains f l =
  let half = List.length l / 2 in
  let back = Domain.spawn (fun () -> List.map f (List.filteri (fun i _ -> i >= half) l)) in
  let front = List.map f (List.filteri (fun i _ -> i < half) l) in
  front @ Domain.join back

(* Wait for a child process, retrying on EINTR. *)
let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
