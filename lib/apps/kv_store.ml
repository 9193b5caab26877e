module Cl = Clouds.Cluster
module Om = Clouds.Object_manager
module V = Clouds.Value
module Mem = Clouds.Memory
module Ph = Clouds.Pheap

let buckets = 64
let off_count = 0
let bucket_off b = 64 + (8 * b)
let bucket_of key = Hashtbl.hash key mod buckets

(* heap node layout: [next:8][key:4+k][value:4+v] *)
let node_next ctx n = Mem.get_int ctx.Clouds.Ctx.mem ~region:Mem.Heap n
let node_key ctx n = Mem.get_string ctx.Clouds.Ctx.mem ~region:Mem.Heap (n + 8)

let node_value ctx n =
  let key = node_key ctx n in
  Mem.get_value ctx.Clouds.Ctx.mem ~region:Mem.Heap
    (n + 8 + Mem.string_footprint key)

let charge ctx = ctx.Clouds.Ctx.compute (Sim.Time.us 80)

let find_node ctx key =
  let rec walk n =
    if n = 0 then None
    else if String.equal (node_key ctx n) key then Some n
    else walk (node_next ctx n)
  in
  walk (Mem.get_int ctx.Clouds.Ctx.mem (bucket_off (bucket_of key)))

let remove_node ctx key =
  let boff = bucket_off (bucket_of key) in
  let rec walk prev n =
    if n = 0 then false
    else begin
      let next = node_next ctx n in
      if String.equal (node_key ctx n) key then begin
        (if prev = 0 then Mem.set_int ctx.Clouds.Ctx.mem boff next
         else Mem.set_int ctx.Clouds.Ctx.mem ~region:Mem.Heap prev next);
        Ph.free (ctx.Clouds.Ctx.pheap ()) n;
        Mem.set_int ctx.Clouds.Ctx.mem off_count
          (Mem.get_int ctx.Clouds.Ctx.mem off_count - 1);
        true
      end
      else walk n next
    end
  in
  walk 0 (Mem.get_int ctx.Clouds.Ctx.mem boff)

let insert_node ctx key value =
  let boff = bucket_off (bucket_of key) in
  let size = 8 + Mem.string_footprint key + Mem.value_footprint value in
  let n = Ph.alloc (ctx.Clouds.Ctx.pheap ()) size in
  Mem.set_int ctx.Clouds.Ctx.mem ~region:Mem.Heap n
    (Mem.get_int ctx.Clouds.Ctx.mem boff);
  Mem.set_string ctx.Clouds.Ctx.mem ~region:Mem.Heap (n + 8) key;
  Mem.set_value ctx.Clouds.Ctx.mem ~region:Mem.Heap
    (n + 8 + Mem.string_footprint key)
    value;
  Mem.set_int ctx.Clouds.Ctx.mem boff n;
  Mem.set_int ctx.Clouds.Ctx.mem off_count
    (Mem.get_int ctx.Clouds.Ctx.mem off_count + 1)

let put_fn ctx arg =
  charge ctx;
  let key_v, value = V.to_pair arg in
  let key = V.to_string key_v in
  ignore (remove_node ctx key);
  insert_node ctx key value;
  V.Unit

let cls =
  Clouds.Obj_class.define ~name:"kvstore" ~heap_pages:16
    [
      Clouds.Obj_class.entry "put" put_fn;
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "put_durable" put_fn;
      Clouds.Obj_class.entry "get" (fun ctx arg ->
          charge ctx;
          match find_node ctx (V.to_string arg) with
          | Some n -> V.Pair (V.Bool true, node_value ctx n)
          | None -> V.Pair (V.Bool false, V.Unit));
      Clouds.Obj_class.entry "delete" (fun ctx arg ->
          charge ctx;
          V.Bool (remove_node ctx (V.to_string arg)));
      Clouds.Obj_class.entry "count" (fun ctx _ ->
          V.Int (Mem.get_int ctx.Clouds.Ctx.mem off_count));
      Clouds.Obj_class.entry "keys" (fun ctx _ ->
          charge ctx;
          let acc = ref [] in
          for b = 0 to buckets - 1 do
            let rec walk n =
              if n <> 0 then begin
                acc := V.Str (node_key ctx n) :: !acc;
                walk (node_next ctx n)
              end
            in
            walk (Mem.get_int ctx.Clouds.Ctx.mem (bucket_off b))
          done;
          V.List !acc);
    ]

let register om =
  let cl = Om.cluster om in
  if Cl.find_class cl "kvstore" = None then Cl.register_class cl cls

let create om =
  register om;
  Om.create_object om ~class_name:"kvstore" V.Unit

let put om obj key value =
  ignore (Om.call om obj "put" (V.Pair (V.Str key, value)))

let put_durable om obj key value =
  ignore (Om.call om obj "put_durable" (V.Pair (V.Str key, value)))

let get om obj key =
  match Om.call om obj "get" (V.Str key) with
  | V.Pair (V.Bool true, v) -> Some v
  | V.Pair (V.Bool false, _) -> None
  | _ -> failwith "Kv_store.get: bad reply"

let delete om obj key = V.to_bool (Om.call om obj "delete" (V.Str key))
let count om obj = V.to_int (Om.call om obj "count" V.Unit)

let keys om obj =
  match Om.call om obj "keys" V.Unit with
  | V.List l -> List.map V.to_string l
  | _ -> failwith "Kv_store.keys: bad reply"
