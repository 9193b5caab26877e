type t = {
  eng : Sim.Engine.t;
  ether : Net.Ethernet.t;
  params : Ra.Params.t;
  replication : int;
  compute_nodes : Ra.Node.t array;
  clients : Dsm.Dsm_client.t array;
  data_nodes : Ra.Node.t array;
  servers : Dsm.Dsm_server.t array;
  workstations : (Ra.Node.t * Terminal.t) array;
  classes : (string, Obj_class.t) Hashtbl.t;
  class_code : (string, Ra.Sysname.t) Hashtbl.t;
  seg_home : Net.Address.t Ra.Sysname.Table.t;
  seg_replicas : Net.Address.t list Ra.Sysname.Table.t;
  seg_modes : Ra.Partition.consistency Ra.Sysname.Table.t;
      (* per-segment consistency mode; absent = One_copy *)
  obj_home : Net.Address.t Ra.Sysname.Table.t;
  volatile : (int, unit Ra.Sysname.Table.t) Hashtbl.t;
  mutable scheduler : [ `Round_robin | `Least_loaded ];
  mutable rr_compute : int;
  mutable rr_data : int;
  mutable next_thread : int;
  mutable next_txn : int;
  mutable entry_wrapper :
    Obj_class.consistency -> Ctx.t -> (unit -> Value.t) -> Value.t;
  mutable ring : Ring.t;
  mutable prev_ring : Ring.t option;
  mutable name_sharding : bool;
  name_shards : (Net.Address.t, Ra.Sysname.t) Hashtbl.t;
  ns_locks : (Net.Address.t, Sim.Rwlock.t) Hashtbl.t;
  mutable membership : Membership.Monitor.t option;
}

let ns_lock t shard =
  match Hashtbl.find_opt t.ns_locks shard with
  | Some m -> m
  | None ->
      let m = Sim.Rwlock.create ~label:"ns-shard" () in
      Hashtbl.replace t.ns_locks shard m;
      m

let locate_segment t seg =
  match Ra.Sysname.Table.find_opt t.seg_home seg with
  | Some addr -> addr
  | None -> raise (Ra.Partition.No_segment seg)

let add_segment t seg home = Ra.Sysname.Table.replace t.seg_home seg home

let replicas_of t seg =
  match Ra.Sysname.Table.find_opt t.seg_replicas seg with
  | Some l -> l
  | None -> (
      match Ra.Sysname.Table.find_opt t.seg_home seg with
      | Some home -> [ home ]
      | None -> [])

(* Record the full replica list of a segment; the head is the primary
   every client resolves to. *)
let set_replicas t seg replicas =
  match replicas with
  | [] -> invalid_arg "Cluster.set_replicas: empty replica list"
  | primary :: _ ->
      Ra.Sysname.Table.replace t.seg_replicas seg replicas;
      Ra.Sysname.Table.replace t.seg_home seg primary

let remove_segment t seg =
  Ra.Sysname.Table.remove t.seg_home seg;
  Ra.Sysname.Table.remove t.seg_replicas seg;
  Ra.Sysname.Table.remove t.seg_modes seg

let consistency_of t seg =
  match Ra.Sysname.Table.find_opt t.seg_modes seg with
  | Some m -> m
  | None -> Ra.Partition.One_copy

(* Record a segment's consistency mode cluster-wide (clients resolve
   through [consistency_of]) and mirror it onto every server that
   stores a replica, so the home defers/merges accordingly. *)
let set_consistency t seg mode =
  (match mode with
  | Ra.Partition.One_copy -> Ra.Sysname.Table.remove t.seg_modes seg
  | m -> Ra.Sysname.Table.replace t.seg_modes seg m);
  Array.iter
    (fun server -> Dsm.Dsm_server.set_consistency server seg mode)
    t.servers

let membership_usable t addr =
  match t.membership with
  | Some m -> Membership.Monitor.usable m addr
  | None -> true

(* Placement of a fresh replicated segment: the primary plus the next
   [replication - 1] healthy data servers by address, wrapping — a
   deterministic copyset that spreads load without a placement
   service. *)
let replica_targets t ~primary =
  let others =
    Array.to_list t.data_nodes
    |> List.filter_map (fun n ->
           let id = n.Ra.Node.id in
           if id = primary then None
           else if n.Ra.Node.alive && membership_usable t id then Some id
           else None)
    |> List.sort Net.Address.compare
  in
  let above, below = List.partition (fun a -> a > primary) others in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  primary :: take (t.replication - 1) (above @ below)

let volatile_table t node_id =
  match Hashtbl.find_opt t.volatile node_id with
  | Some tbl -> tbl
  | None ->
      let tbl = Ra.Sysname.Table.create 8 in
      Hashtbl.replace t.volatile node_id tbl;
      tbl

let register_volatile t node seg =
  Ra.Sysname.Table.replace (volatile_table t node.Ra.Node.id) seg ()

let is_volatile t node seg =
  Ra.Sysname.Table.mem (volatile_table t node.Ra.Node.id) seg

(* Volatile segments never touch the network: they always start
   zeroed and their writeback is a no-op (they die with the
   activation). *)
let volatile_partition =
  {
    Ra.Partition.name = "volatile";
    fetch = (fun ~seg:_ ~page:_ ~mode:_ -> Ra.Partition.Zeroed);
    writeback = (fun ~seg:_ ~page:_ _ -> ());
  }

let create eng ?(params = Ra.Params.default) ?ratp_config ?ether_config
    ?(replication = 1) ?group_commit_window ?checkpoint_every ~compute ~data
    ~workstations () =
  if compute < 1 || data < 1 then
    invalid_arg "Cluster.create: need at least one compute and one data server";
  if replication < 1 then invalid_arg "Cluster.create: replication < 1";
  let ether = Net.Ethernet.create eng ?config:ether_config () in
  let t_ref = ref None in
  let locate seg =
    match !t_ref with
    | Some t -> locate_segment t seg
    | None -> assert false
  in
  let consistency seg =
    match !t_ref with
    | Some t -> consistency_of t seg
    | None -> Ra.Partition.One_copy
  in
  let data_nodes =
    Array.init data (fun i ->
        Ra.Node.create ether ~id:(i + 1) ~kind:Ra.Node.Data ~params
          ?ratp_config ())
  in
  let servers =
    Array.map
      (fun n ->
        Dsm.Dsm_server.create n ?group_commit_window ?checkpoint_every ())
      data_nodes
  in
  let compute_nodes =
    Array.init compute (fun i ->
        Ra.Node.create ether ~id:(data + i + 1) ~kind:Ra.Node.Compute ~params
          ?ratp_config ())
  in
  let clients =
    Array.map
      (fun n ->
        Dsm.Dsm_client.create n ~locate ~consistency ())
      compute_nodes
  in
  let wk =
    Array.init workstations (fun i ->
        let node =
          Ra.Node.create ether ~id:(data + compute + i + 1)
            ~kind:Ra.Node.Workstation ~params ?ratp_config ()
        in
        let term = Terminal.create ~wid:node.Ra.Node.id in
        User_io.install node term;
        (node, term))
  in
  let t =
    {
      eng;
      ether;
      params;
      replication;
      compute_nodes;
      clients;
      data_nodes;
      servers;
      workstations = wk;
      classes = Hashtbl.create 16;
      class_code = Hashtbl.create 16;
      seg_home = Ra.Sysname.Table.create 64;
      seg_replicas = Ra.Sysname.Table.create 64;
      seg_modes = Ra.Sysname.Table.create 16;
      obj_home = Ra.Sysname.Table.create 64;
      volatile = Hashtbl.create 16;
      scheduler = `Round_robin;
      rr_compute = 0;
      rr_data = 0;
      next_thread = 1;
      next_txn = 1;
      entry_wrapper = (fun _label _ctx body -> body ());
      ring =
        Ring.make
          (Array.to_list (Array.map (fun n -> n.Ra.Node.id) data_nodes));
      prev_ring = None;
      name_sharding = true;
      name_shards = Hashtbl.create 8;
      ns_locks = Hashtbl.create 8;
      membership = None;
    }
  in
  t_ref := Some t;
  (* a segment's current primary forwards committed writes to its
     backups; everyone else (including the backups) forwards nothing *)
  Array.iter
    (fun server ->
      let self = (Dsm.Dsm_server.node server).Ra.Node.id in
      Dsm.Dsm_server.set_mirrors server (fun seg ->
          match Ra.Sysname.Table.find_opt t.seg_replicas seg with
          | Some (primary :: backups) when Net.Address.equal primary self ->
              backups
          | _ -> []))
    servers;
  (* compute nodes route volatile segments locally and everything
     else through DSM *)
  Array.iteri
    (fun i node ->
      let dsm_partition = Dsm.Dsm_client.partition clients.(i) in
      Ra.Mmu.set_resolver node.Ra.Node.mmu (fun seg ->
          if is_volatile t node seg then volatile_partition else dsm_partition))
    compute_nodes;
  t

let pick_round_robin t =
  let n = Array.length t.compute_nodes in
  let rec pick tries =
    if tries >= n then invalid_arg "Cluster.pick_compute: no live compute server"
    else begin
      let node = t.compute_nodes.(t.rr_compute mod n) in
      t.rr_compute <- t.rr_compute + 1;
      if node.Ra.Node.alive && membership_usable t node.Ra.Node.id then node
      else pick (tries + 1)
    end
  in
  pick 0

let pick_least_loaded t =
  let best =
    Array.fold_left
      (fun acc node ->
        if
          (not node.Ra.Node.alive)
          || not (membership_usable t node.Ra.Node.id)
        then acc
        else begin
          let load = Ra.Cpu.load node.Ra.Node.cpu + node.Ra.Node.sched_load in
          match acc with
          | Some (_, best_load) when best_load <= load -> acc
          | _ -> Some (node, load)
        end)
      None t.compute_nodes
  in
  match best with
  | Some (node, _) -> node
  | None -> invalid_arg "Cluster.pick_compute: no live compute server"

let pick_compute t =
  match t.scheduler with
  | `Round_robin -> pick_round_robin t
  | `Least_loaded -> pick_least_loaded t

let pick_data t =
  let n = Array.length t.data_nodes in
  let rec pick tries =
    if tries >= n then invalid_arg "Cluster.pick_data: no live data server"
    else begin
      let node = t.data_nodes.(t.rr_data mod n) in
      t.rr_data <- t.rr_data + 1;
      if node.Ra.Node.alive && membership_usable t node.Ra.Node.id then
        node.Ra.Node.id
      else pick (tries + 1)
    end
  in
  pick 0

(* Ring placement: the owner of the key's arc, skipping to the next
   distinct member along the ring while the candidate is down.  Falls
   back to round robin only if every ring member is unusable (the
   cluster is effectively dead anyway). *)
let place_data t key =
  let rec first = function
    | [] -> pick_data t
    | addr :: rest ->
        let node =
          Array.to_list t.data_nodes
          |> List.find_opt (fun n -> n.Ra.Node.id = addr)
        in
        let ok =
          match node with
          | Some n -> n.Ra.Node.alive && membership_usable t addr
          | None -> false
        in
        if ok then addr else first rest
  in
  first (Ring.successors t.ring key)

let place_object t obj = place_data t (Ring.key_of_sysname obj)

let set_name_sharding t flag = t.name_sharding <- flag

(* The shard that owns a name binding.  With sharding off, everything
   funnels through the lowest-addressed data server — the historical
   centralized name server, kept as the A/B baseline. *)
let name_shard t name =
  if t.name_sharding then place_data t (Ring.key_of_string name)
  else t.data_nodes.(0).Ra.Node.id

(* Writes to a shard are serialized through one deterministic compute
   node (the shard's bind leader): concurrent binds from many clients
   land on the same CPU and interleave under its object mutex instead
   of racing DSM writes to the shard's persistent heap from two nodes
   at once. *)
let bind_leader t shard =
  let n = Array.length t.compute_nodes in
  let rec pick i tries =
    if tries >= n then pick_compute t
    else begin
      let node = t.compute_nodes.(i mod n) in
      if node.Ra.Node.alive && membership_usable t node.Ra.Node.id then node
      else pick (i + 1) (tries + 1)
    end
  in
  pick (shard mod n) 0

let all_nodes t =
  Array.to_list t.data_nodes
  @ Array.to_list t.compute_nodes
  @ List.map fst (Array.to_list t.workstations)

let node_by_id t id =
  List.find_opt (fun n -> n.Ra.Node.id = id) (all_nodes t)

let client_of t id =
  let rec find i =
    if i >= Array.length t.compute_nodes then None
    else if t.compute_nodes.(i).Ra.Node.id = id then Some t.clients.(i)
    else find (i + 1)
  in
  find 0

let server_at t addr =
  let rec find i =
    if i >= Array.length t.data_nodes then None
    else if t.data_nodes.(i).Ra.Node.id = addr then Some t.servers.(i)
    else find (i + 1)
  in
  find 0

let terminal_of t id =
  let rec find i =
    if i >= Array.length t.workstations then None
    else begin
      let node, term = t.workstations.(i) in
      if node.Ra.Node.id = id then Some term else find (i + 1)
    end
  in
  find 0

(* Pseudo machine code: stable non-zero contents so that code-page
   fetches cost a data copy, not a zero fill. *)
let code_bytes class_name page =
  let b = Bytes.create Ra.Page.size in
  let seed = Hashtbl.hash (class_name, page) in
  for i = 0 to Ra.Page.size - 1 do
    Bytes.set b i (Char.chr ((seed + i) land 0xff))
  done;
  b

let register_class t (cls : Obj_class.t) =
  if Hashtbl.mem t.classes cls.Obj_class.c_name then
    invalid_arg "Cluster.register_class: already loaded";
  Hashtbl.replace t.classes cls.Obj_class.c_name cls;
  let home = place_data t (Ring.key_of_string cls.Obj_class.c_name) in
  match server_at t home with
  | None -> assert false
  | Some server ->
      let node = Dsm.Dsm_server.node server in
      let seg = Ra.Sysname.fresh node.Ra.Node.names in
      (* code segments are materialized on every replica target at
         load time (configuration-time action, so direct store writes
         rather than RPCs) *)
      let targets = replica_targets t ~primary:home in
      List.iter
        (fun addr ->
          match server_at t addr with
          | None -> assert false
          | Some server ->
              let store = Dsm.Dsm_server.store server in
              Store.Segment_store.create_segment store seg
                ~size:(cls.Obj_class.code_pages * Ra.Page.size);
              for page = 0 to cls.Obj_class.code_pages - 1 do
                Store.Segment_store.write_page store seg page
                  (code_bytes cls.Obj_class.c_name page)
              done)
        targets;
      set_replicas t seg targets;
      Hashtbl.replace t.class_code cls.Obj_class.c_name seg

let find_class t name = Hashtbl.find_opt t.classes name

let fresh_txn t node =
  let seq = t.next_txn in
  t.next_txn <- seq + 1;
  (node.Ra.Node.id, seq)

(* Membership is opt-in: without it the cluster behaves exactly as
   before (no heartbeat traffic, suspicion driven by RaTP timeouts
   alone), which keeps the calibrated experiments untouched. *)
(* Rebuild the placement ring over the data servers the view still
   admits.  When the member set actually changed, evict exactly the
   cached locations whose owner moved between the two rings — the
   affected arc — and keep every other binding warm. *)
let remap_ring t (v : Membership.Monitor.view) =
  let usable_data =
    Array.to_list t.data_nodes
    |> List.filter_map (fun n ->
           let id = n.Ra.Node.id in
           let condemned =
             List.exists
               (fun (m : Membership.Monitor.member) ->
                 Net.Address.equal m.addr id
                 && m.status = Membership.Monitor.Dead)
               v.Membership.Monitor.members
           in
           if condemned then None else Some id)
  in
  match usable_data with
  | [] -> () (* no usable data server: keep the old ring *)
  | members when members <> Ring.members t.ring ->
      let before = t.ring in
      let after = Ring.make members in
      t.ring <- after;
      t.prev_ring <- Some before;
      Array.iter
        (fun c ->
          ignore
            (Dsm.Dsm_client.evict_where c (fun seg _home ->
                 Ring.moved ~before ~after (Ring.key_of_sysname seg))))
        t.clients
  | _ -> ()

let start_membership t ?config () =
  match t.membership with
  | Some m -> m
  | None ->
      let host = t.compute_nodes.(0) in
      let m = Membership.Monitor.create ?config host in
      t.membership <- Some m;
      List.iter
        (fun n ->
          if n.Ra.Node.id <> host.Ra.Node.id then Membership.Monitor.watch m n)
        (all_nodes t);
      (* every DSM server and client folds each new view in: Dead
         peers leave coherence fan-outs and location caches at once *)
      Membership.Monitor.subscribe m (fun v ->
          Array.iter (fun s -> Dsm.Dsm_server.apply_view s v) t.servers;
          Array.iter (fun c -> Dsm.Dsm_client.apply_view c v) t.clients;
          remap_ring t v);
      m

let stop_membership t =
  match t.membership with
  | Some m -> Membership.Monitor.stop m
  | None -> ()

let membership_view t = Option.map Membership.Monitor.view t.membership
