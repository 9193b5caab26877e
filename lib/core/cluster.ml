type state = {
  classes : (string, Obj_class.t * Ra.Sysname.t) Hashtbl.t;
      (* each class with the code segment its instances share *)
  code_segs : unit Ra.Sysname.Table.t;
  volatile : (int * Ra.Sysname.t, unit) Hashtbl.t;  (* (node id, seg) *)
  mutable scheduler : [ `Round_robin | `Least_loaded ];
  mutable rr_compute : int;
  mutable next_thread : int;
  mutable next_txn : int;
  mutable name_sharding : bool;
  name_shards : (Net.Address.t, Ra.Sysname.t) Hashtbl.t;
      (* lazily created name-server object per data-server shard *)
  ns_locks : (Net.Address.t, Sim.Mutex.t) Hashtbl.t;
  mutable membership : Membership.Monitor.t option;
}

type t = {
  eng : Sim.Engine.t;
  ether : Net.Ethernet.t;
  replication : int;
  compute_nodes : Ra.Node.t array;
  clients : Dsm.Dsm_client.t array;
  data_nodes : Ra.Node.t array;
  servers : Dsm.Dsm_server.t array;
  workstations : (Ra.Node.t * Terminal.t) array;
  placement : Placement.t;
  state : state;
}

(* The value under [key], made and added on a miss. *)
let memo find_opt replace tbl key make =
  match find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      replace tbl key v;
      v

let ns_lock t shard =
  memo Hashtbl.find_opt Hashtbl.replace t.state.ns_locks shard (fun () ->
      Sim.Mutex.create ~label:"ns-shard" ())

let membership_usable t addr =
  match t.state.membership with
  | Some m -> Membership.Monitor.usable m addr
  | None -> true

let usable t n = n.Ra.Node.alive && membership_usable t n.Ra.Node.id

let data_ids t = Array.to_list (Array.map (fun n -> n.Ra.Node.id) t.data_nodes)

let usable_data t =
  List.filter (fun id -> usable t t.data_nodes.(id - 1)) (data_ids t)

let next_after ~primary n addrs =
  let above, below = List.partition (fun a -> a > primary) addrs in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take n (above @ below)

(* Placement of a fresh replicated segment: the primary plus the next
   [replication - 1] healthy data servers by address, wrapping — a
   deterministic copyset that spreads load without a placement
   service. *)
let replica_targets t ~primary =
  let others = List.filter (fun a -> a <> primary) (usable_data t) in
  primary :: next_after ~primary (t.replication - 1) others

let register_volatile t node seg =
  Hashtbl.replace t.state.volatile (node.Ra.Node.id, seg) ()

let is_volatile t node seg = Hashtbl.mem t.state.volatile (node.Ra.Node.id, seg)

(* Volatile segments never touch the network: they always start
   zeroed and their writeback is a no-op (they die with the
   activation). *)
let volatile_partition =
  {
    Ra.Partition.fetch = (fun ~seg:_ ~page:_ ~mode:_ -> Ra.Partition.Zeroed);
    writeback = (fun ~seg:_ ~page:_ _ -> ());
  }

let create eng ?ratp_config ?ether_config
    ?(replication = 1) ?group_commit_window ?checkpoint_every ~compute ~data
    ~workstations () =
  if compute < 1 || data < 1 then
    invalid_arg "Cluster.create: need at least one compute and one data server";
  if replication < 1 then invalid_arg "Cluster.create: replication < 1";
  let ether = Net.Ethernet.create eng ?config:ether_config () in
  let data_nodes =
    Array.init data (fun i ->
        Ra.Node.create ether ~id:(i + 1) ~kind:Ra.Node.Data ?ratp_config ())
  in
  let placement =
    Placement.create
      (Array.to_list (Array.map (fun n -> n.Ra.Node.id) data_nodes))
  in
  let servers =
    Array.map
      (fun n ->
        Dsm.Dsm_server.create n ?group_commit_window ?checkpoint_every
          ~consistency:(Placement.mode placement) ())
      data_nodes
  in
  let compute_nodes =
    Array.init compute (fun i ->
        Ra.Node.create ether ~id:(data + i + 1) ~kind:Ra.Node.Compute
          ?ratp_config ())
  in
  let clients =
    Array.map
      (fun n ->
        Dsm.Dsm_client.create n ~locate:(Placement.locate placement)
          ~consistency:(Placement.mode placement) ())
      compute_nodes
  in
  let wk =
    Array.init workstations (fun i ->
        let node =
          Ra.Node.create ether ~id:(data + compute + i + 1)
            ~kind:Ra.Node.Workstation ?ratp_config ()
        in
        let term = Terminal.create () in
        User_io.install node term;
        (node, term))
  in
  let t =
    {
      eng;
      ether;
      replication;
      compute_nodes;
      clients;
      data_nodes;
      servers;
      workstations = wk;
      placement;
      state =
        {
          classes = Hashtbl.create 16;
          code_segs = Ra.Sysname.Table.create 16;
          volatile = Hashtbl.create 16;
          scheduler = `Round_robin;
          rr_compute = 0;
          next_thread = 1;
          next_txn = 1;
          name_sharding = true;
          name_shards = Hashtbl.create 8;
          ns_locks = Hashtbl.create 8;
          membership = None;
        };
    }
  in
  (* a segment's current primary forwards committed writes to its
     backups; everyone else (including the backups) forwards nothing *)
  Array.iter
    (fun server ->
      let self = (Dsm.Dsm_server.node server).Ra.Node.id in
      Dsm.Dsm_server.set_mirrors server (fun seg ->
          match Placement.replicas placement seg with
          | primary :: backups when Net.Address.equal primary self -> backups
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
      let node = t.compute_nodes.(t.state.rr_compute mod n) in
      t.state.rr_compute <- t.state.rr_compute + 1;
      if usable t node then node else pick (tries + 1)
    end
  in
  pick 0

let pick_least_loaded t =
  let best =
    Array.fold_left
      (fun acc node ->
        if not (usable t node) then acc
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

let set_scheduler t policy = t.state.scheduler <- policy

let pick_compute t =
  match t.state.scheduler with
  | `Round_robin -> pick_round_robin t
  | `Least_loaded -> pick_least_loaded t

(* Ring placement: the owner of the key's arc, skipping to the next
   distinct member along the ring while the candidate is down.  The
   ring holds every data server the membership view has not condemned
   ([remap_ring]), so when no member is usable none is. *)
let place_data t key =
  let ok addr =
    Array.exists (fun n -> n.Ra.Node.id = addr && usable t n) t.data_nodes
  in
  match Ring.find_owner (Placement.ring t.placement) key ok with
  | Some addr -> addr
  | None -> invalid_arg "Cluster.place_data: no live data server"

let place_object t obj = place_data t (Ring.key_of_sysname obj)

let set_name_sharding t flag = t.state.name_sharding <- flag

(* The shard that owns a name binding.  With sharding off, everything
   funnels through the lowest-addressed data server — the historical
   centralized name server, kept as the A/B baseline. *)
let name_shard t name =
  if t.state.name_sharding then place_data t (Ring.key_of_string name)
  else t.data_nodes.(0).Ra.Node.id

let name_shard_object t shard ~create =
  memo Hashtbl.find_opt Hashtbl.replace t.state.name_shards shard create

let name_shards t =
  Hashtbl.fold (fun shard obj acc -> (shard, obj) :: acc) t.state.name_shards []
  |> List.sort (fun (a, _) (b, _) -> Net.Address.compare a b)

let prev_name_shard t name =
  match Placement.prev_ring t.placement with
  | Some prev when t.state.name_sharding ->
      let old_shard = Ring.owner_of_string prev name in
      if
        old_shard <> name_shard t name
        && Hashtbl.mem t.state.name_shards old_shard
      then Some old_shard
      else None
  | _ -> None

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
      if usable t node then node else pick (i + 1) (tries + 1)
    end
  in
  pick (shard mod n) 0

let all_nodes t =
  Array.to_list t.data_nodes
  @ Array.to_list t.compute_nodes
  @ List.map fst (Array.to_list t.workstations)

let node_by_id t id =
  List.find_opt (fun n -> n.Ra.Node.id = id) (all_nodes t)

(* Data servers are addresses 1..d and compute servers d+1..d+c. *)
let client_of t id =
  let i = id - Array.length t.data_nodes - 1 in
  if i >= 0 && i < Array.length t.clients then Some t.clients.(i) else None

let server_at t addr =
  if addr >= 1 && addr <= Array.length t.servers then Some t.servers.(addr - 1)
  else None

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
  if Hashtbl.mem t.state.classes cls.Obj_class.c_name then
    invalid_arg "Cluster.register_class: already loaded";
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
      Placement.place t.placement seg targets;
      Hashtbl.replace t.state.classes cls.Obj_class.c_name (cls, seg);
      Ra.Sysname.Table.replace t.state.code_segs seg ()

let find_class t name = Option.map fst (Hashtbl.find_opt t.state.classes name)

let classes t =
  Hashtbl.fold (fun _ (cls, _) acc -> cls :: acc) t.state.classes []
  |> List.sort (fun a b -> String.compare a.Obj_class.c_name b.Obj_class.c_name)

let code_segment t name = Option.map snd (Hashtbl.find_opt t.state.classes name)
let is_code_segment t seg = Ra.Sysname.Table.mem t.state.code_segs seg

let fresh_txn t node =
  let seq = t.state.next_txn in
  t.state.next_txn <- seq + 1;
  (node.Ra.Node.id, seq)

let fresh_thread t =
  let tid = t.state.next_thread in
  t.state.next_thread <- tid + 1;
  tid

(* Rebuild the placement ring over the data servers the view still
   admits, keeping the previous ring for lookups of names placed
   before the change. *)
let remap_ring t (v : Membership.Monitor.view) =
  let condemned id =
    List.exists
      (fun (m : Membership.Monitor.member) ->
        Net.Address.equal m.addr id && m.status = Membership.Monitor.Dead)
      v.Membership.Monitor.members
  in
  Placement.remap t.placement
    (List.filter (fun id -> not (condemned id)) (data_ids t))

(* Membership is opt-in: without it the cluster behaves exactly as
   before (no heartbeat traffic, suspicion driven by RaTP timeouts
   alone), which keeps the calibrated experiments untouched. *)
let start_membership t ?config () =
  match t.state.membership with
  | Some m -> m
  | None ->
      let host = t.compute_nodes.(0) in
      let m = Membership.Monitor.create ?config host in
      t.state.membership <- Some m;
      List.iter
        (fun n ->
          if n.Ra.Node.id <> host.Ra.Node.id then Membership.Monitor.watch m n)
        (all_nodes t);
      (* every DSM server folds each new view in: Dead peers leave
         coherence fan-outs at once *)
      Membership.Monitor.subscribe m (fun v ->
          Array.iter (fun s -> Dsm.Dsm_server.apply_view s v) t.servers;
          remap_ring t v);
      m

let membership t = t.state.membership

