exception No_object of Ra.Sysname.t
exception No_class of string
exception No_entry of Ra.Sysname.t * string

(* Standard layout of an object's virtual space. *)
let code_base = 0x0400_0000
let data_base = 0x0800_0000
let heap_base = 0x0C00_0000
let vheap_base = 0x1000_0000

type activation = {
  act_vs : Ra.Virtual_space.t;
  act_cls : Obj_class.t;
  act_mem : Memory.t;
  code_seg : Ra.Sysname.t;
  data_seg : Ra.Sysname.t;
  heap_seg : Ra.Sysname.t;
  vheap_seg : Ra.Sysname.t;
  semaphores : (string, Sim.Semaphore.t) Hashtbl.t;
  mutexes : (string, Sim.Mutex.t) Hashtbl.t;
}

type Ratp.Packet.body +=
  | Invoke of {
      obj : Ra.Sysname.t;
      entry : string;
      arg : Value.t;
      thread_id : int;
      origin : int option;
      txn : (int * int) option;
    }
  | Invoke_ok of Value.t
  | Invoke_failed of string

let invoke_service = 30

type t = {
  cl : Cluster.t;
  activations : ((int * Ra.Sysname.t), activation) Hashtbl.t;
  activating : ((int * Ra.Sysname.t), unit Sim.Ivar.t) Hashtbl.t;
  daemons_started : unit Ra.Sysname.Table.t;
  per_thread : ((int * Ra.Sysname.t), (string, Value.t) Hashtbl.t) Hashtbl.t;
  visits : (int, Ra.Sysname.t list ref) Hashtbl.t;
  invoke_count : Sim.Stats.counter;
  local_invokes : Sim.Stats.counter;
  mutable entry_wrapper :
    Obj_class.consistency -> Ctx.t -> (unit -> Value.t) -> Value.t;
}

let cluster t = t.cl
let set_entry_wrapper t w = t.entry_wrapper <- w

(* ------------------------------------------------------------------ *)
(* Activation *)

let fetch_descriptor t node obj =
  let ask home =
    match Dsm.Protocol.call node ~dst:home (Dsm.Protocol.Get_descriptor obj) with
    | Ok (Dsm.Protocol.Descriptor d) -> d
    | Ok _ | Error Ratp.Endpoint.Timeout -> None
  in
  (* ask every data server in turn, skipping members the view has
     condemned (a replicated object's descriptor lives on each of its
     replicas, so a survivor answers) *)
  let scan () =
    Array.fold_left
      (fun acc dn ->
        match acc with
        | Some _ -> acc
        | None ->
            if Cluster.usable t.cl dn then ask dn.Ra.Node.id else None)
      None t.cl.Cluster.data_nodes
  in
  match Placement.home t.cl.Cluster.placement obj with
  | Some home when Cluster.membership_usable t.cl home -> (
      match ask home with Some d -> Some d | None -> scan ())
  | Some _ | None -> scan ()

let find_entry_seg entries role =
  match
    List.find_opt (fun e -> String.equal e.Store.Directory.role role) entries
  with
  | Some e -> (e.Store.Directory.seg, e.Store.Directory.size)
  | None -> raise Not_found

let rec activate t node obj =
  let key = (node.Ra.Node.id, obj) in
  match Hashtbl.find_opt t.activations key with
  | Some a -> a
  | None when Hashtbl.mem t.activating key ->
      (* another thread is activating this object here; wait for it *)
      Sim.Ivar.read (Hashtbl.find t.activating key);
      activate t node obj
  | None ->
      let iv = Sim.Ivar.create () in
      Hashtbl.replace t.activating key iv;
      Fun.protect
        ~finally:(fun () ->
          Hashtbl.remove t.activating key;
          Sim.Ivar.fill iv ())
      @@ fun () ->
      let desc =
        match fetch_descriptor t node obj with
        | Some d -> d
        | None -> raise (No_object obj)
      in
      let cls =
        match Cluster.find_class t.cl desc.Store.Directory.class_name with
        | Some c -> c
        | None -> raise (No_class desc.Store.Directory.class_name)
      in
      let code_seg, code_size = find_entry_seg desc.Store.Directory.entries "code" in
      let data_seg, data_size = find_entry_seg desc.Store.Directory.entries "data" in
      let heap_seg, heap_size = find_entry_seg desc.Store.Directory.entries "pheap" in
      let vs = Ra.Virtual_space.create () in
      Ra.Virtual_space.map vs ~base:code_base ~len:code_size
        ~prot:Ra.Virtual_space.Read_only code_seg;
      Ra.Virtual_space.map vs ~base:data_base ~len:data_size
        ~prot:Ra.Virtual_space.Read_write data_seg;
      Ra.Virtual_space.map vs ~base:heap_base ~len:heap_size
        ~prot:Ra.Virtual_space.Read_write heap_seg;
      let vheap_seg = Ra.Sysname.fresh node.Ra.Node.names in
      let vheap_len = cls.Obj_class.vheap_pages * Ra.Page.size in
      Cluster.register_volatile t.cl node vheap_seg;
      Ra.Virtual_space.map vs ~base:vheap_base ~len:vheap_len
        ~prot:Ra.Virtual_space.Read_write vheap_seg;
      let mem =
        Memory.make ~mmu:node.Ra.Node.mmu ~vs ~data_base ~data_len:data_size
          ~heap_base ~heap_len:heap_size ~vheap_base ~vheap_len
      in
      let a =
        {
          act_vs = vs;
          act_cls = cls;
          act_mem = mem;
          code_seg;
          data_seg;
          heap_seg;
          vheap_seg;
          semaphores = Hashtbl.create 4;
          mutexes = Hashtbl.create 4;
        }
      in
      (* building the object space costs kernel work, and the first
         dispatch pulls in the code segment plus the heads of the
         persistent data (entry vector and object header) *)
      Ra.Isiba.compute node Ra.Params.activation_setup;
      for page = 0 to cls.Obj_class.code_pages - 1 do
        ignore
          (Ra.Mmu.read node.Ra.Node.mmu vs
             ~addr:(code_base + (page * Ra.Page.size))
             ~len:8)
      done;
      ignore (Ra.Mmu.read node.Ra.Node.mmu vs ~addr:data_base ~len:8);
      Hashtbl.replace t.activations key a;
      a

(* ------------------------------------------------------------------ *)
(* Invocation *)

let per_thread_table t thread_id obj =
  let key = (thread_id, obj) in
  match Hashtbl.find_opt t.per_thread key with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.replace t.per_thread key tbl;
      tbl

(* Only real threads keep a visit log: the pseudo-threads 0 ([call]
   and other callers outside any thread) and -1 (daemons) never reach
   [end_thread], so their logs would grow forever. *)
let record_visit t thread_id obj =
  if thread_id > 0 then begin
    let log =
      match Hashtbl.find_opt t.visits thread_id with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace t.visits thread_id l;
          l
    in
    log := obj :: !log
  end

(* Touch the code pages the dispatch path executes: the entry
   trampoline on page 0 and the entry's own page.  Cold objects fault
   these in through DSM, which is most of the paper's 103 ms
   worst-case null invocation. *)
let touch_code node (a : activation) entry_name =
  let mmu = node.Ra.Node.mmu in
  ignore (Ra.Mmu.read mmu a.act_vs ~addr:code_base ~len:8);
  let pages = a.act_cls.Obj_class.code_pages in
  if pages > 1 then begin
    let page = 1 + (Hashtbl.hash entry_name mod (pages - 1)) in
    ignore
      (Ra.Mmu.read mmu a.act_vs ~addr:(code_base + (page * Ra.Page.size)) ~len:8)
  end

(* Build the execution context an entry point (or constructor, or
   daemon) sees.  The nested-invocation closure reads [ctx.txn] at
   call time so a transaction begun by the entry wrapper propagates
   inward. *)
let rec make_ctx t node (a : activation) ~obj ~thread_id ~origin ~txn =
  let heap = ref None in
  let rec ctx =
    {
      Ctx.self = obj;
      node;
      thread_id;
      mem = a.act_mem;
      pheap =
        (fun () ->
          match !heap with
          | Some h -> h
          | None ->
              let h = Pheap.attach a.act_mem Memory.Heap in
              heap := Some h;
              h);
      invoke =
        (fun ~obj ~entry arg ->
          invoke t ~node ~thread_id ~origin ~txn:ctx.Ctx.txn ~obj ~entry arg);
      print =
        (match origin with
        | Some w -> fun line -> User_io.remote_print node ~workstation:w line
        | None -> fun line -> print_endline line);
      compute = (fun span -> Ra.Isiba.compute node span);
      semaphore =
        (fun name count ->
          match Hashtbl.find_opt a.semaphores name with
          | Some s -> s
          | None ->
              let s = Sim.Semaphore.create ~label:name count in
              Hashtbl.replace a.semaphores name s;
              s);
      obj_mutex =
        (fun name ->
          match Hashtbl.find_opt a.mutexes name with
          | Some m -> m
          | None ->
              let m = Sim.Mutex.create ~label:name () in
              Hashtbl.replace a.mutexes name m;
              m);
      per_invocation = Hashtbl.create 4;
      per_thread = per_thread_table t thread_id obj;
      txn;
    }
  in
  ctx

(* An active object's daemons start with its first activation
   anywhere and run until their machine dies. *)
and start_daemons t node (a : activation) obj =
  if
    a.act_cls.Obj_class.daemons <> []
    && not (Ra.Sysname.Table.mem t.daemons_started obj)
  then begin
    Ra.Sysname.Table.replace t.daemons_started obj ();
    List.iter
      (fun (name, body) ->
        ignore
          (Ra.Node.spawn node
             (Printf.sprintf "daemon-%s" name)
             (fun () ->
               let ctx =
                 make_ctx t node a ~obj ~thread_id:(-1) ~origin:None ~txn:None
               in
               body ctx)))
      a.act_cls.Obj_class.daemons
  end

and invoke t ~node ~thread_id ~origin ~txn ~obj ~entry arg =
 Obs.Tracer.with_span ~node:node.Ra.Node.id "invoke" @@ fun () ->
  if not node.Ra.Node.alive then failwith "Object_manager.invoke: dead node";
  let a = activate t node obj in
  let e =
    match Obj_class.find_entry a.act_cls entry with
    | Some e -> e
    | None -> raise (No_entry (obj, entry))
  in
  start_daemons t node a obj;
  Sim.Stats.incr t.invoke_count;
  record_visit t thread_id obj;
  Ra.Isiba.compute node Ra.Params.invoke_setup;
  touch_code node a entry;
  let ctx = make_ctx t node a ~obj ~thread_id ~origin ~txn in
  let result =
    t.entry_wrapper e.Obj_class.label ctx (fun () -> e.Obj_class.fn ctx arg)
  in
  (* Release-consistency scope boundary for non-transactional
     entries: ship the dirty pages home so the batched invalidation
     burst fires and later readers see every write.  Transactional
     entries already flush through commit. *)
  (if ctx.Ctx.txn = None then
     match Cluster.client_of t.cl node.Ra.Node.id with
     | None -> ()
     | Some client ->
         List.iter
           (fun seg ->
             match Placement.mode t.cl.Cluster.placement seg with
             | Ra.Partition.Release | Ra.Partition.Commutative _ ->
                 Dsm.Dsm_client.flush_segment client seg
             | Ra.Partition.One_copy -> ())
           [ a.data_seg; a.heap_seg ]);
  Ra.Isiba.compute node Ra.Params.invoke_return;
  result

let call t obj entry arg =
  invoke t ~node:(Cluster.pick_compute t.cl) ~thread_id:0 ~origin:None
    ~txn:None ~obj ~entry arg

(* Same-node fast lane: dispatching an invocation to the node we are
   already on skips RaTP entirely — no serialization, fragmentation,
   transport processing, or wire time; only the local invocation cost
   (activation, dispatch, page touches) is paid.  Failures surface
   exactly as the remote path reports them: any handler exception
   becomes [Ctx.Invoke_error] carrying the printed exception, so
   callers cannot tell the two paths apart semantically. *)
let invoke_remote t ~from ~target ~thread_id ~origin ~txn ~obj ~entry arg =
  if Net.Address.equal target from.Ra.Node.id then begin
    Sim.Stats.incr t.local_invokes;
    match invoke t ~node:from ~thread_id ~origin ~txn ~obj ~entry arg with
    | v -> v
    | exception e -> raise (Ctx.Invoke_error (Printexc.to_string e))
  end
  else begin
    (* fast failover: a target the membership view already condemned
       fails immediately instead of burning the RaTP retry ladder *)
    if not (Cluster.membership_usable t.cl target) then
      raise (Ctx.Invoke_error "compute server unreachable");
    let body = Invoke { obj; entry; arg; thread_id; origin; txn } in
    let size = 64 + String.length entry + Value.size arg in
    match
      Ratp.Endpoint.call from.Ra.Node.endpoint ~dst:target
        ~service:invoke_service ~size body
    with
    | Ok (Invoke_ok v) -> v
    | Ok (Invoke_failed msg) -> raise (Ctx.Invoke_error msg)
    | Ok _ -> raise (Ctx.Invoke_error "bad invocation reply")
    | Error Ratp.Endpoint.Timeout ->
        raise (Ctx.Invoke_error "compute server unreachable")
  end

let create cl =
  let t =
    {
      cl;
      activations = Hashtbl.create 64;
      per_thread = Hashtbl.create 64;
      visits = Hashtbl.create 32;
      activating = Hashtbl.create 8;
      daemons_started = Ra.Sysname.Table.create 8;
      invoke_count = Sim.Stats.counter "om/invocations";
      local_invokes = Sim.Stats.counter "om/local_invokes";
      entry_wrapper = (fun _label _ctx body -> body ());
    }
  in
  Array.iter
    (fun node ->
      Ratp.Endpoint.serve node.Ra.Node.endpoint ~service:invoke_service
        (fun ~src:_ body ->
          match body with
          | Invoke { obj; entry; arg; thread_id; origin; txn } -> (
              match invoke t ~node ~thread_id ~origin ~txn ~obj ~entry arg with
              | v -> (Invoke_ok v, 48 + Value.size v)
              | exception e ->
                  let msg = Printexc.to_string e in
                  (Invoke_failed msg, 48 + String.length msg))
          | _ -> (Invoke_failed "bad invocation request", 64)))
    cl.Cluster.compute_nodes;
  t

(* ------------------------------------------------------------------ *)
(* Creation and deletion *)

let create_object t ?home ?on ?(consistency = Ra.Partition.One_copy) ~class_name arg =
  let node = match on with Some n -> n | None -> Cluster.pick_compute t.cl in
  let cls =
    match Cluster.find_class t.cl class_name with
    | Some c -> c
    | None -> raise (No_class class_name)
  in
  let code_seg =
    match Cluster.code_segment t.cl class_name with
    | Some s -> s
    | None -> raise (No_class class_name)
  in
  let obj = Ra.Sysname.fresh node.Ra.Node.names in
  (* placement is a pure function of the object's sysname (the ring),
     so any node can later re-derive the home without a directory
     round trip; an explicit [home] (e.g. a name-server shard) wins *)
  let home =
    match home with Some h -> h | None -> Cluster.place_object t.cl obj
  in
  let targets = Cluster.replica_targets t.cl ~primary:home in
  let data_seg = Ra.Sysname.fresh node.Ra.Node.names in
  let heap_seg = Ra.Sysname.fresh node.Ra.Node.names in
  (* each segment is created on the primary and every backup; the
     primary forwards committed writes from then on *)
  let mk seg pages =
    List.iter
      (fun dst ->
        match
          Dsm.Protocol.call node ~dst
            (Dsm.Protocol.Create_segment { seg; size = pages * Ra.Page.size })
        with
        | Ok Dsm.Protocol.Segment_ok -> ()
        | Ok _ | Error Ratp.Endpoint.Timeout ->
            failwith "create_object: segment creation failed")
      targets;
    Placement.place t.cl.Cluster.placement seg targets;
    Placement.set_mode t.cl.Cluster.placement seg consistency
  in
  mk data_seg cls.Obj_class.data_pages;
  mk heap_seg cls.Obj_class.heap_pages;
  let descriptor =
    {
      Store.Directory.class_name;
      home;
      entries =
        [
          {
            Store.Directory.role = "code";
            seg = code_seg;
            size = cls.Obj_class.code_pages * Ra.Page.size;
          };
          {
            Store.Directory.role = "data";
            seg = data_seg;
            size = cls.Obj_class.data_pages * Ra.Page.size;
          };
          {
            Store.Directory.role = "pheap";
            seg = heap_seg;
            size = cls.Obj_class.heap_pages * Ra.Page.size;
          };
        ];
    }
  in
  List.iter
    (fun dst ->
      match
        Dsm.Protocol.call node ~dst
          (Dsm.Protocol.Register_object { obj; descriptor })
      with
      | Ok Dsm.Protocol.Registered -> ()
      | Ok _ | Error Ratp.Endpoint.Timeout ->
          failwith "create_object: descriptor registration failed")
    targets;
  Placement.set_home t.cl.Cluster.placement obj home;
  (match cls.Obj_class.constructor with
  | None -> ()
  | Some ctor ->
      let a = activate t node obj in
      start_daemons t node a obj;
      Ra.Isiba.compute node Ra.Params.invoke_setup;
      touch_code node a "constructor";
      (* a constructor runs as the pseudo-thread 0, with no terminal *)
      let ctx = make_ctx t node a ~obj ~thread_id:0 ~origin:None ~txn:None in
      ctor ctx arg;
      Ra.Isiba.compute node Ra.Params.invoke_return);
  obj

let delete_object t ?on obj =
  let node = match on with Some n -> n | None -> Cluster.pick_compute t.cl in
  let desc =
    match fetch_descriptor t node obj with
    | Some d -> d
    | None -> raise (No_object obj)
  in
  let home = desc.Store.Directory.home in
  (* every replica holds the segments and the descriptor *)
  let targets =
    List.sort_uniq Net.Address.compare
      (home
      :: List.concat_map
           (fun e ->
             if String.equal e.Store.Directory.role "code" then []
             else
               Placement.replicas t.cl.Cluster.placement e.Store.Directory.seg)
           desc.Store.Directory.entries)
  in
  List.iter
    (fun e ->
      if not (String.equal e.Store.Directory.role "code") then begin
        List.iter
          (fun dst ->
            match
              Dsm.Protocol.call node ~dst
                (Dsm.Protocol.Delete_segment e.Store.Directory.seg)
            with
            | Ok _ | Error Ratp.Endpoint.Timeout -> ())
          (Placement.replicas t.cl.Cluster.placement e.Store.Directory.seg);
        Placement.remove t.cl.Cluster.placement e.Store.Directory.seg
      end)
    desc.Store.Directory.entries;
  List.iter
    (fun dst ->
      match Dsm.Protocol.call node ~dst (Dsm.Protocol.Unregister_object obj) with
      | Ok _ | Error Ratp.Endpoint.Timeout -> ())
    targets;
  Placement.forget_home t.cl.Cluster.placement obj;
  (* drop activations everywhere *)
  Array.iter
    (fun cnode ->
      let key = (cnode.Ra.Node.id, obj) in
      match Hashtbl.find_opt t.activations key with
      | Some a ->
          List.iter
            (fun seg -> Ra.Mmu.drop_segment cnode.Ra.Node.mmu seg)
            [ a.data_seg; a.heap_seg; a.vheap_seg ];
          Hashtbl.remove t.activations key
      | None -> ())
    t.cl.Cluster.compute_nodes

let visited t thread_id =
  match Hashtbl.find_opt t.visits thread_id with
  | Some l -> !l
  | None -> []

let end_thread t thread_id =
  Hashtbl.remove t.visits thread_id;
  let stale =
    Hashtbl.fold
      (fun (tid, obj) _ acc ->
        if tid = thread_id then (tid, obj) :: acc else acc)
      t.per_thread []
  in
  List.iter (Hashtbl.remove t.per_thread) stale

let metrics t =
  Sim.Stats.[ Counter t.invoke_count; Counter t.local_invokes ]
