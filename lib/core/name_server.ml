(* Bindings are a singly linked list in the object's persistent heap;
   the head offset lives at byte 0 of the persistent data segment.
   Node layout: [next:8][name:4+n][sysname:4+m].

   The list is the durable form.  Lookups go through a volatile
   hash-indexed directory (name -> heap offset) kept per shard object.
   It models the shard's in-core hash table: shared by every compute
   node because DSM keeps the underlying heap coherent and writes are
   serialized by the bind leader.  A hit reads one node instead of walking the list,
   a miss falls back to the walk (which refills the index as it goes).
   Index entries are verified against the heap before being trusted,
   so a stale entry can only cost a walk, never a wrong answer.

   The service is sharded: each data server owns one name-server
   object holding the arc of the name space the cluster's placement
   ring assigns it.  Reads run on the caller's compute node; writes
   are routed to the shard's bind leader under the shard write lock,
   so the persistent list is only ever mutated from one node at a
   time. *)

let head_off = 0

let get_next ctx node = Memory.get_int ctx.Ctx.mem ~region:Memory.Heap node

let get_name ctx node =
  Memory.get_string ctx.Ctx.mem ~region:Memory.Heap (node + 8)

let get_sys ctx node =
  let name = get_name ctx node in
  Memory.get_string ctx.Ctx.mem ~region:Memory.Heap
    (node + 8 + Memory.string_footprint name)

let charge ctx =
  ctx.Ctx.compute Ra.Params.name_lookup

let fold ctx f init =
  let rec walk acc node =
    if node = 0 then acc else walk (f acc node) (get_next ctx node)
  in
  walk init (Memory.get_int ctx.Ctx.mem head_off)

(* O(1) find via the directory; the durable list is the fallback and
   the authority.  A directory hit is verified by reading the node's
   name from the heap — [Memory] accessors are bounds-checked, so a
   dangling offset raises and we just take the walk. *)
let find idx ctx name =
  let verified =
    match Hashtbl.find_opt idx name with
    | None -> None
    | Some node -> (
        match get_name ctx node with
        | n when String.equal n name -> Some node
        | _ | (exception _) ->
            Hashtbl.remove idx name;
            None)
  in
  match verified with
  | Some _ as hit -> hit
  | None ->
      let rec walk node =
        if node = 0 then None
        else begin
          let n = get_name ctx node in
          if not (Hashtbl.mem idx n) then Hashtbl.replace idx n node;
          if String.equal n name then Some node else walk (get_next ctx node)
        end
      in
      walk (Memory.get_int ctx.Ctx.mem head_off)

(* Unlink the first node bearing [name], skipping [keep].  The node
   is unlinked but NOT freed: a concurrent reader walking the list may
   still be standing on it, and an unlinked-but-intact node lets that
   walk finish with the old (recent, well-formed) answer instead of
   reading recycled heap bytes.  The leaked cell is the price of
   lock-free readers; a real system reclaims it with the recoverable
   heap's commit machinery. *)
let unlink idx ctx ?(keep = -1) name =
  let rec walk prev node =
    if node = 0 then false
    else begin
      let next = get_next ctx node in
      if node <> keep && String.equal (get_name ctx node) name then begin
        (if prev = 0 then Memory.set_int ctx.Ctx.mem head_off next
         else Memory.set_int ctx.Ctx.mem ~region:Memory.Heap prev next);
        (match Hashtbl.find_opt idx name with
        | Some n when n = node -> Hashtbl.remove idx name
        | _ -> ());
        true
      end
      else walk node next
    end
  in
  walk 0 (Memory.get_int ctx.Ctx.mem head_off)

let insert idx ctx name sys =
  let size = 8 + Memory.string_footprint name + Memory.string_footprint sys in
  let node = Pheap.alloc (ctx.Ctx.pheap ()) size in
  Memory.set_int ctx.Ctx.mem ~region:Memory.Heap node
    (Memory.get_int ctx.Ctx.mem head_off);
  Memory.set_string ctx.Ctx.mem ~region:Memory.Heap (node + 8) name;
  Memory.set_string ctx.Ctx.mem ~region:Memory.Heap
    (node + 8 + Memory.string_footprint name)
    sys;
  Memory.set_int ctx.Ctx.mem head_off node;
  Hashtbl.replace idx name node;
  node

(* Built once per cluster (each cluster loads its own copy of the
   class), so the shard directories its entries close over belong to
   that cluster alone. *)
let cls () =
  let indexes = Ra.Sysname.Table.create 8 in
  let index ctx =
    match Ra.Sysname.Table.find_opt indexes ctx.Ctx.self with
    | Some idx -> idx
    | None ->
        let idx = Hashtbl.create 64 in
        Ra.Sysname.Table.replace indexes ctx.Ctx.self idx;
        idx
  in
  Obj_class.define ~name:"nameserver" ~heap_pages:64
    [
      (* binds are local consistency preserving: with the atomicity
         manager installed they commit to the data server, so names
         survive compute-server crashes; without it they degrade to
         s-thread semantics *)
      Obj_class.entry ~label:Obj_class.Lcp "bind" (fun ctx arg ->
          charge ctx;
          let name_v, sys_v = Value.to_pair arg in
          let name = Value.to_string name_v in
          let sys = Value.to_string sys_v in
          (* insert first, then unlink any older binding: a reader
             racing the rebind sees the old node or the new one, never
             a window where the name is absent *)
          let idx = index ctx in
          let fresh = insert idx ctx name sys in
          ignore (unlink idx ctx ~keep:fresh name);
          Value.Unit);
      Obj_class.entry "lookup" (fun ctx arg ->
          charge ctx;
          let name = Value.to_string arg in
          match find (index ctx) ctx name with
          | Some node -> Value.Str (get_sys ctx node)
          | None -> Value.Unit);
      Obj_class.entry ~label:Obj_class.Lcp "unbind" (fun ctx arg ->
          charge ctx;
          Value.Bool (unlink (index ctx) ctx (Value.to_string arg)));
      Obj_class.entry "list" (fun ctx _arg ->
          charge ctx;
          Value.List
            (fold ctx
               (fun acc node ->
                 Value.Pair
                   (Value.Str (get_name ctx node), Value.Str (get_sys ctx node))
                 :: acc)
               []));
    ]

let ensure_class cl =
  if Cluster.find_class cl "nameserver" = None then
    Cluster.register_class cl (cls ())

(* One name-server object per shard, created lazily with its segments
   homed on the owning data server. *)
let shard_object om shard =
  let cl = Object_manager.cluster om in
  Cluster.name_shard_object cl shard ~create:(fun () ->
      ensure_class cl;
      Object_manager.create_object om ~home:shard ~class_name:"nameserver"
        Value.Unit)

let boot om =
  let cl = Object_manager.cluster om in
  shard_object om cl.Cluster.data_nodes.(0).Ra.Node.id

let shard_of om name = Cluster.name_shard (Object_manager.cluster om) name

let invoke_shard om ~node ~shard entry arg =
  Object_manager.invoke om ~node ~thread_id:0 ~origin:None ~txn:None
    ~obj:(shard_object om shard) ~entry arg

(* Lookups are lock-free: the bind path's insert-then-unlink ordering
   guarantees a racing reader sees either the old binding or the new
   one, never a gap, so readers pay no synchronization at all.  Only
   mutations serialize, exclusively per shard, so two clients can
   never interleave list surgery on the same persistent heap. *)
let with_write cl shard f = Sim.Mutex.with_lock (Cluster.ns_lock cl shard) f

(* reads run wherever the caller sits (or a scheduled compute node) *)
let read_invoke ?on om ~name entry arg =
  let cl = Object_manager.cluster om in
  let node = match on with Some n -> n | None -> Cluster.pick_compute cl in
  invoke_shard om ~node ~shard:(shard_of om name) entry arg

(* writes are serialized per shard: routed to the shard's bind leader
   and run under the shard write lock *)
let write_invoke om ~name entry arg =
  let cl = Object_manager.cluster om in
  let shard = shard_of om name in
  let node = Cluster.bind_leader cl shard in
  with_write cl shard (fun () -> invoke_shard om ~node ~shard entry arg)

let bind om ~name sys =
  match
    write_invoke om ~name "bind"
      (Value.Pair (Value.Str name, Value.Str (Ra.Sysname.to_string sys)))
  with
  | Value.Unit -> ()
  | _ -> failwith "name server: bad bind reply"

let lookup_at ?on om ~name = read_invoke ?on om ~name "lookup" (Value.Str name)

let lookup ?on om name =
  match lookup_at ?on om ~name with
  | Value.Str s -> Ra.Sysname.of_string s
  | Value.Unit -> (
      let cl = Object_manager.cluster om in
      match Cluster.prev_name_shard cl name with
      | Some shard -> (
          let node = Cluster.pick_compute cl in
          match invoke_shard om ~node ~shard "lookup" (Value.Str name) with
          | Value.Str s -> Ra.Sysname.of_string s
          | _ -> None)
      | None -> None)
  | _ -> failwith "name server: bad lookup reply"

let unbind om name =
  ignore (write_invoke om ~name "unbind" (Value.Str name));
  let cl = Object_manager.cluster om in
  match Cluster.prev_name_shard cl name with
  | Some shard ->
      let node = Cluster.bind_leader cl shard in
      ignore
        (with_write cl shard (fun () ->
             invoke_shard om ~node ~shard "unbind" (Value.Str name)))
  | None -> ()

let bindings om =
  let cl = Object_manager.cluster om in
  List.concat_map
    (fun (shard, _) ->
      let node = Cluster.pick_compute cl in
      match invoke_shard om ~node ~shard "list" Value.Unit with
      | Value.List l ->
          List.filter_map
            (fun v ->
              match v with
              | Value.Pair (Value.Str n, Value.Str s) -> (
                  match Ra.Sysname.of_string s with
                  | Some sys -> Some (n, sys)
                  | None -> None)
              | _ -> None)
            l
      | _ -> [])
    (Cluster.name_shards cl)
