(* The twelve small suite circuits, stored as .bench fixtures so that
   set-up does not repeat the ~two minutes of redundancy removal that
   [Circuits.Suite] spends building them. *)

let dir = "perfbench/fixtures"
let digests_file = dir ^ "/DIGESTS"
let names = List.map (fun (e : Suite.entry) -> e.Suite.name) Suite.small

type t = { name : string; text : string }

let recorded_digests () =
  Pb_util.read_file digests_file |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ name; digest ] -> Some (name, digest)
         | _ -> None)

(* Read, parse and digest-check the named fixtures.  A fixture whose
   [Service.Store.digest_of_circuit] differs from the recorded digest
   fails the run before anything is timed. *)
let load wanted =
  let recorded = recorded_digests () in
  List.map
    (fun name ->
      let text = Pb_util.read_file (Filename.concat dir (name ^ ".bench")) in
      let circuit = Bench_format.parse_string ~title:name text in
      let got = Service.Store.digest_of_circuit circuit in
      (match List.assoc_opt name recorded with
      | Some d when d = got -> ()
      | Some d -> failwith (Printf.sprintf "fixture %s: digest %s, recorded %s" name got d)
      | None -> failwith (Printf.sprintf "fixture %s: no recorded digest" name));
      { name; text })
    wanted

(* Rebuild every fixture from [Circuits.Suite] and rewrite DIGESTS. *)
let regenerate () =
  let lines =
    List.map
      (fun (e : Suite.entry) ->
        let path = Filename.concat dir (e.Suite.name ^ ".bench") in
        Bench_format.write_file path (Suite.build e);
        let back = Bench_format.parse_file path in
        Printf.sprintf "%s %s" e.Suite.name (Service.Store.digest_of_circuit back))
      Suite.small
  in
  Out_channel.with_open_bin digests_file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  List.iter print_endline lines
