exception Failed of exn
exception Cancelled

type t = {
  id : int;
  node_id : int;
  eng : Sim.Engine.t;
  mutable pid : Sim.Engine.pid;
  result : (Value.t, exn) result Sim.Ivar.t;
  mutable visit_log : Ra.Sysname.t list;
}

let id t = t.id
let node t = t.node_id

let start om ?origin ?on ~obj ~entry arg =
  let cl = Object_manager.cluster om in
  let node =
    match on with
    | Some addr -> (
        match Cluster.node_by_id cl addr with
        | Some n when n.Ra.Node.kind = Ra.Node.Compute -> n
        | Some _ | None -> invalid_arg "Thread.start: not a compute server")
    | None -> Cluster.pick_compute cl
  in
  let tid = Cluster.fresh_thread cl in
  let t =
    {
      id = tid;
      node_id = node.Ra.Node.id;
      eng = cl.Cluster.eng;
      pid = 0;
      result = Sim.Ivar.create ();
      visit_log = [];
    }
  in
  t.pid <-
    (Ra.Node.spawn node
       (Printf.sprintf "thread-%d" tid)
       (fun () ->
         Ra.Isiba.compute node Ra.Params.thread_create;
         let outcome =
           match
             Object_manager.invoke om ~node ~thread_id:tid ~origin ~txn:None
               ~obj ~entry arg
           with
           | v -> Ok v
           | exception e -> Error e
         in
         t.visit_log <- Object_manager.visited om tid;
         Object_manager.end_thread om tid;
         ignore (Sim.Ivar.try_fill t.result outcome)));
  node.Ra.Node.sched_load <- node.Ra.Node.sched_load + 1;
  (* on_terminate runs exactly once however the thread ends: it keeps
     the scheduler's load view correct and makes sure joiners get an
     answer even if the thread's machine crashed *)
  Sim.Engine.on_terminate t.eng t.pid (fun () ->
      node.Ra.Node.sched_load <- node.Ra.Node.sched_load - 1;
      ignore (Sim.Ivar.try_fill t.result (Error Cancelled)));
  t

let kill t =
  Sim.Engine.kill t.eng t.pid;
  ignore (Sim.Ivar.try_fill t.result (Error Cancelled))

let try_join t = Sim.Ivar.read t.result

let join t =
  match try_join t with Ok v -> v | Error e -> raise (Failed e)

let visited om t =
  match Object_manager.visited om t.id with
  | [] -> t.visit_log
  | live -> live
