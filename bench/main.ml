(* The benchmark baseline: every keyed experiment of the registry at
   its quick size, as one fixed-seed (so byte-stable) JSON document.

   dune exec bench/main.exe -- --json          -- writes BENCH_core.json
   dune exec bench/main.exe -- diff BASE NOW   -- drifted paths; exit 1 if any *)

module J = Obs.Export

let write_json path =
  let sections =
    Experiments.(
      List.filter_map
        (fun e -> Option.map (fun key -> (key, (e.run ~quick:true).json)) e.key)
        all)
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "clouds-bench/v1");
        ("seed", J.Num 42.0);
        ("simulated", J.Obj sections);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let read path =
  match J.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--json" ] -> write_json "BENCH_core.json"
  | [ "diff"; base; now ] -> (
      match J.diff (read base) (read now) with
      | [] -> ()
      | changes ->
          List.iter print_endline changes;
          exit 1)
  | _ ->
      prerr_endline "usage: main.exe --json | main.exe diff BASE.json NOW.json";
      exit 2
