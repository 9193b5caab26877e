(* Run the reproduction of every table and figure in the paper's
   evaluation and print paper-vs-measured.

   dune exec bin/experiments_main.exe            -- everything
   dune exec bin/experiments_main.exe -- t1 f3   -- a subset
   dune exec bin/experiments_main.exe -- --quick -- smaller samples *)

open Cmdliner

let main quick ids =
  let open Experiments in
  let select id =
    match find (String.lowercase_ascii id) with
    | Some e -> e
    | None ->
        List.map (fun e -> String.concat "|" (e.id :: e.aliases)) all
        |> String.concat " "
        |> Printf.eprintf "unknown experiment %S (known: %s)\n" id;
        exit 2
  in
  let exps = if ids = [] then List.filter (fun e -> e.default) all else List.map select ids in
  print_endline "Clouds reproduction: paper vs simulation";
  print_endline "========================================\n";
  List.iter
    (fun e ->
      let o = e.run ~quick in
      print_string o.text;
      List.iter
        (fun (path, contents) ->
          Out_channel.with_open_text path (fun oc -> output_string oc (contents ^ "\n"));
          Printf.printf "wrote %s\n" path)
        o.files;
      print_newline ())
    exps

let cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sample counts.")
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce the Clouds paper's evaluation tables and figures")
    Term.(const main $ quick $ ids)

let () = exit (Cmd.eval cmd)
