module Cl = Clouds.Cluster
module Om = Clouds.Object_manager
module V = Clouds.Value
module Mem = Clouds.Memory

let header = 64
let off_size = 0

let entries capacity =
  [
    Clouds.Obj_class.entry "size" (fun ctx _ ->
        V.Int (Mem.get_int ctx.Clouds.Ctx.mem off_size));
    Clouds.Obj_class.entry "read" (fun ctx arg ->
        let off_v, len_v = V.to_pair arg in
        let off = V.to_int off_v and len = V.to_int len_v in
        if off < 0 || len < 0 then invalid_arg "file read";
        let size = Mem.get_int ctx.Clouds.Ctx.mem off_size in
        let len = max 0 (min len (size - off)) in
        ctx.Clouds.Ctx.compute (Sim.Time.us 50);
        if len = 0 then V.Str ""
        else
          V.Str
            (Bytes.to_string
               (Mem.read ctx.Clouds.Ctx.mem (header + off) ~len)));
    Clouds.Obj_class.entry "write" (fun ctx arg ->
        let off_v, data_v = V.to_pair arg in
        let off = V.to_int off_v in
        let data = V.to_string data_v in
        if off < 0 || off + String.length data > capacity then
          invalid_arg "file write: beyond capacity";
        ctx.Clouds.Ctx.compute (Sim.Time.us 50);
        Mem.write ctx.Clouds.Ctx.mem (header + off) (Bytes.of_string data);
        let size = Mem.get_int ctx.Clouds.Ctx.mem off_size in
        if off + String.length data > size then
          Mem.set_int ctx.Clouds.Ctx.mem off_size (off + String.length data);
        V.Unit);
    Clouds.Obj_class.entry "append" (fun ctx arg ->
        let data = V.to_string arg in
        let size = Mem.get_int ctx.Clouds.Ctx.mem off_size in
        if size + String.length data > capacity then
          invalid_arg "file append: beyond capacity";
        ctx.Clouds.Ctx.compute (Sim.Time.us 50);
        Mem.write ctx.Clouds.Ctx.mem (header + size) (Bytes.of_string data);
        Mem.set_int ctx.Clouds.Ctx.mem off_size (size + String.length data);
        V.Unit);
    Clouds.Obj_class.entry "truncate" (fun ctx arg ->
        let n = V.to_int arg in
        if n < 0 || n > Mem.get_int ctx.Clouds.Ctx.mem off_size then
          invalid_arg "file truncate";
        Mem.set_int ctx.Clouds.Ctx.mem off_size n;
        V.Unit);
  ]

let class_name_for capacity = Printf.sprintf "file-%d" capacity

let register om ~capacity =
  let cl = Om.cluster om in
  let name = class_name_for capacity in
  if Cl.find_class cl name = None then
    Cl.register_class cl
      (Clouds.Obj_class.define ~name
         ~data_pages:(Ra.Page.count_for (header + capacity))
         ~heap_pages:1 (entries capacity));
  name

let create om ~capacity =
  let name = register om ~capacity in
  Om.create_object om ~class_name:name V.Unit

let size om obj = V.to_int (Om.call om obj "size" V.Unit)

let read om obj ~off ~len =
  V.to_string (Om.call om obj "read" (V.Pair (V.Int off, V.Int len)))

let write om obj ~off data =
  ignore (Om.call om obj "write" (V.Pair (V.Int off, V.Str data)))

let append om obj data = ignore (Om.call om obj "append" (V.Str data))
let truncate om obj n = ignore (Om.call om obj "truncate" (V.Int n))
