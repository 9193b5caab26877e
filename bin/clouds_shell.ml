(* The Clouds user shell (paper §3.1).

   In the prototype, users on Unix workstations drove Clouds through a
   shell that created objects, bound names and issued invocations; all
   thread output came back to the user's terminal window.  This is
   that shell over the simulated cluster: it reads commands from a
   script file (or runs a built-in demo), executes them inside the
   simulation, and echoes terminal output.

     dune exec bin/clouds_shell.exe                 -- built-in demo
     dune exec bin/clouds_shell.exe -- myscript.cld
     dune exec bin/clouds_shell.exe -- --compute 4 --data 2 script.cld

   Commands:
     classes                       list loaded classes
     create CLASS NAME [INT]      instantiate and bind (arg to constructor)
     invoke NAME ENTRY [ARGS...]  run a thread; ints parse as ints
     lookup NAME | unbind NAME | names
     objects SERVER               directory listing of a data server
     nodes | time | tick MS
     crash ADDR | restart ADDR
     echo TEXT...                 print
*)

open Cmdliner
open Clouds

let rectangle =
  Obj_class.define ~name:"rectangle"
    [
      Obj_class.entry "size" (fun ctx arg ->
          let x, y = Value.to_pair arg in
          Memory.set_int ctx.Ctx.mem 0 (Value.to_int x);
          Memory.set_int ctx.Ctx.mem 8 (Value.to_int y);
          Value.Unit);
      Obj_class.entry "area" (fun ctx _ ->
          Value.Int (Memory.get_int ctx.Ctx.mem 0 * Memory.get_int ctx.Ctx.mem 8));
    ]

let counter =
  Obj_class.define ~name:"counter"
    ~constructor:(fun ctx arg ->
      match arg with
      | Value.Int n -> Memory.set_int ctx.Ctx.mem 0 n
      | _ -> ())
    [
      Obj_class.entry ~label:Obj_class.Gcp "incr" (fun ctx _ ->
          let v = Memory.get_int ctx.Ctx.mem 0 + 1 in
          Memory.set_int ctx.Ctx.mem 0 v;
          Value.Int v);
      Obj_class.entry "get" (fun ctx _ -> Value.Int (Memory.get_int ctx.Ctx.mem 0));
    ]

let parse_arg token =
  match int_of_string_opt token with
  | Some n -> Value.Int n
  | None -> Value.Str token

let collect_args = function
  | [] -> Value.Unit
  | [ one ] -> parse_arg one
  | [ a; b ] -> Value.Pair (parse_arg a, parse_arg b)
  | many -> Value.List (List.map parse_arg many)

let demo_script =
  [
    "echo -- the paper's 2.4 example --";
    "classes";
    "create rectangle Rect01";
    "invoke Rect01 size 5 10";
    "invoke Rect01 area";
    "echo -- persistence and names --";
    "create counter Tally 100";
    "invoke Tally incr";
    "invoke Tally incr";
    "invoke Tally get";
    "names";
    "echo -- a persistent lisp environment --";
    "create lisp-env Lisp";
    "lisp Lisp (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
    "lisp Lisp (fib 15)";
    "nodes";
    "objects 1";
    "time";
  ]

type shell = {
  sys : Clouds.system;
  mgr : Atomicity.Manager.t;
  term : Terminal.t;
  wk : Ra.Node.t;
}

let drain_terminal sh =
  List.iter (fun line -> Printf.printf "  | %s\n" line) (Terminal.output sh.term)

let exec_command sh line =
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ()
  | cmd :: rest -> (
      Printf.printf "clouds> %s\n" line;
      match (String.lowercase_ascii cmd, rest) with
      | "echo", words -> Printf.printf "%s\n" (String.concat " " words)
      | "help", _ ->
          print_endline
            "commands: classes create invoke lisp lookup unbind names objects nodes time tick crash restart echo"
      | "classes", _ ->
          List.iter
            (fun (cls : Obj_class.t) ->
              Printf.printf "  %-12s %d entries, %d data pages\n"
                cls.Obj_class.c_name
                (List.length cls.Obj_class.entries)
                cls.Obj_class.data_pages)
            (Cluster.classes sh.sys.cluster)
      | "create", cls :: name :: arg ->
          let obj =
            Object_manager.create_object sh.sys.om ~class_name:cls
              (collect_args arg)
          in
          Name_server.bind sh.sys.om ~name obj;
          Printf.printf "  created %s as \"%s\"\n" (Ra.Sysname.to_string obj) name
      | "invoke", name :: entry :: args -> (
          match Name_server.lookup sh.sys.om name with
          | None -> Printf.printf "  no such name: %s\n" name
          | Some obj -> (
              let th =
                Thread.start sh.sys.om ~origin:sh.wk.Ra.Node.id ~obj ~entry
                  (collect_args args)
              in
              match Thread.try_join th with
              | Ok v ->
                  Format.printf "  -> %a  (thread %d on compute server %d)@."
                    Value.pp v (Thread.id th) (Thread.node th)
              | Error e -> Printf.printf "  !! %s\n" (Printexc.to_string e)))
      | "lisp", name :: expr_tokens -> (
          (* evaluate an expression in a persistent lisp environment *)
          let src = String.concat " " expr_tokens in
          match Name_server.lookup sh.sys.om name with
          | None -> Printf.printf "  no such name: %s\n" name
          | Some obj -> (
              match
                Thread.try_join
                  (Thread.start sh.sys.om ~origin:sh.wk.Ra.Node.id ~obj
                     ~entry:"eval" (Value.Str src))
              with
              | Ok (Value.Str result) -> Printf.printf "  => %s\n" result
              | Ok _ -> print_endline "  !! bad reply"
              | Error e -> Printf.printf "  !! %s\n" (Printexc.to_string e)))
      | "lookup", [ name ] -> (
          match Name_server.lookup sh.sys.om name with
          | Some s -> Printf.printf "  %s -> %s\n" name (Ra.Sysname.to_string s)
          | None -> Printf.printf "  %s is not bound\n" name)
      | "unbind", [ name ] ->
          Name_server.unbind sh.sys.om name;
          Printf.printf "  unbound %s\n" name
      | "names", _ ->
          List.iter
            (fun (name, s) ->
              Printf.printf "  %-12s %s\n" name (Ra.Sysname.to_string s))
            (Name_server.bindings sh.sys.om)
      | "objects", [ server ] -> (
          match int_of_string_opt server with
          | None -> print_endline "  usage: objects SERVER-ADDR"
          | Some addr -> (
              match Cluster.server_at sh.sys.cluster addr with
              | None -> Printf.printf "  %d is not a data server\n" addr
              | Some srv ->
                  List.iter
                    (fun obj ->
                      match
                        Store.Directory.lookup (Dsm.Dsm_server.directory srv) obj
                      with
                      | Some d ->
                          Printf.printf "  %-12s class=%s segments=%d\n"
                            (Ra.Sysname.to_string obj)
                            d.Store.Directory.class_name
                            (List.length d.Store.Directory.entries)
                      | None -> ())
                    (Store.Directory.objects (Dsm.Dsm_server.directory srv))))
      | "nodes", _ ->
          let show (node : Ra.Node.t) =
            Printf.printf "  node %d: %s%s\n" node.Ra.Node.id
              (Format.asprintf "%a" Ra.Node.pp_kind node.Ra.Node.kind)
              (if node.Ra.Node.alive then "" else " (down)")
          in
          Array.iter show sh.sys.cluster.Cluster.data_nodes;
          Array.iter show sh.sys.cluster.Cluster.compute_nodes;
          Array.iter (fun (n, _) -> show n) sh.sys.cluster.Cluster.workstations
      | "time", _ -> Printf.printf "  simulated time: %.1f ms\n" (Sim.Time.to_ms_f (Sim.now ()))
      | "tick", [ ms ] -> (
          match int_of_string_opt ms with
          | Some ms ->
              Sim.sleep (Sim.Time.ms ms);
              Printf.printf "  advanced %d ms\n" ms
          | None -> print_endline "  usage: tick MS")
      | "crash", [ addr ] -> (
          match
            Option.bind (int_of_string_opt addr)
              (Cluster.node_by_id sh.sys.cluster)
          with
          | Some node ->
              Ra.Node.crash node;
              Printf.printf "  node %d crashed\n" node.Ra.Node.id
          | None -> print_endline "  usage: crash ADDR")
      | "restart", [ addr ] -> (
          match
            Option.bind (int_of_string_opt addr)
              (Cluster.node_by_id sh.sys.cluster)
          with
          | Some node ->
              Ra.Node.restart node;
              (match Cluster.server_at sh.sys.cluster node.Ra.Node.id with
              | Some srv -> Dsm.Dsm_server.recover srv
              | None -> ());
              Printf.printf "  node %d restarted\n" node.Ra.Node.id
          | None -> print_endline "  usage: restart ADDR")
      | _, _ -> Printf.printf "  unknown command: %s (try help)\n" cmd)

let main compute data script =
  let lines =
    match script with
    | Some path ->
        let ic = open_in path in
        let rec read acc =
          match input_line ic with
          | line -> read (line :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        read []
    | None -> demo_script
  in
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute ~data ~workstations:1 () in
      let mgr = Atomicity.Manager.install sys.om () in
      Cluster.register_class sys.cluster rectangle;
      Cluster.register_class sys.cluster counter;
      Apps.Bank.register sys.om;
      Apps.Kv_store.register sys.om;
      Apps.Port.register sys.om;
      Apps.Lisp_env.register sys.om;
      let wk, term = sys.cluster.Cluster.workstations.(0) in
      let sh = { sys; mgr; term; wk } in
      List.iter
        (fun line ->
          let trimmed = String.trim line in
          if trimmed <> "" && not (String.length trimmed > 0 && trimmed.[0] = '#')
          then exec_command sh trimmed)
        lines;
      Printf.printf "\nterminal output at workstation %d:\n" wk.Ra.Node.id;
      drain_terminal sh);
  0

let cmd =
  let compute =
    Arg.(value & opt int 2 & info [ "compute" ] ~doc:"Compute servers.")
  in
  let data = Arg.(value & opt int 1 & info [ "data" ] ~doc:"Data servers.") in
  let script =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  Cmd.v
    (Cmd.info "clouds_shell" ~doc:"The Clouds user shell over a simulated cluster")
    Term.(const main $ compute $ data $ script)

let () = exit (Cmd.eval' cmd)
