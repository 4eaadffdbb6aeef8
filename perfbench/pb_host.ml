(* The host and input stamp carried by every result, so that two
   results can be compared only when they ran on comparable hosts. *)

(* Only a checkout that is itself a git work tree names its commit; git
   is not asked to search the directories above it. *)
let commit () =
  let from_git () =
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = In_channel.input_line ic in
    ignore (Unix.close_process_in ic);
    match line with Some c when String.length c = 40 -> c | _ -> "unknown"
  in
  if Sys.file_exists ".git" then from_git () else "unknown"

(* Digest of the program's sources, for checkouts that carry no git
   metadata. *)
let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then walk p
               else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then [ p ]
               else [])
  in
  let files = walk "lib" @ walk "bin" in
  Digest.to_hex
    (Digest.string (String.concat "\000" (List.map (fun p -> p ^ Pb_util.read_file p) files)))

let os_kernel () =
  match In_channel.with_open_text "/proc/sys/kernel/osrelease" In_channel.input_line with
  | Some k -> k
  | None | (exception Sys_error _) -> "unknown"

let stamp ~workload ~seed ~jobs ~block_width ~circuits =
  let open Util.Json in
  Obj
    [ ("workload", Str workload); ("seed", Int seed);
      ("cores", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version); ("commit", Str (commit ()));
      ("source_digest", Str (source_digest ())); ("version", Str Util.Version.version);
      ("jobs", Int jobs); ("block_width", Int block_width);
      ("faultsim_kernel", Str "auto"); ("os_kernel", Str (os_kernel ()));
      ("circuits", Obj (List.map (fun (name, digest) -> (name, Str digest)) circuits)) ]
