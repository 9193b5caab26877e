type region = Data | Heap | Volatile

type t = {
  mmu : Ra.Mmu.t;
  vspace : Ra.Virtual_space.t;
  data_base : int;
  data_len : int;
  heap_base : int;
  heap_len : int;
  vheap_base : int;
  vheap_len : int;
}

let make ~mmu ~vs ~data_base ~data_len ~heap_base ~heap_len ~vheap_base
    ~vheap_len =
  {
    mmu;
    vspace = vs;
    data_base;
    data_len;
    heap_base;
    heap_len;
    vheap_base;
    vheap_len;
  }

let region_bounds t = function
  | Data -> (t.data_base, t.data_len)
  | Heap -> (t.heap_base, t.heap_len)
  | Volatile -> (t.vheap_base, t.vheap_len)

let region_size t region = snd (region_bounds t region)

let addr_of t region off len =
  let base, total = region_bounds t region in
  if off < 0 || len < 0 || off + len > total then
    invalid_arg "Memory: access outside region";
  base + off

let read t ?(region = Data) off ~len =
  let addr = addr_of t region off len in
  Ra.Mmu.read t.mmu t.vspace ~addr ~len

let write t ?(region = Data) off data =
  let addr = addr_of t region off (Bytes.length data) in
  Ra.Mmu.write t.mmu t.vspace ~addr data

let get_int t ?(region = Data) off =
  Int64.to_int (Bytes.get_int64_le (read t ~region off ~len:8) 0)

let set_int t ?(region = Data) off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  write t ~region off b

let get_string t ?(region = Data) off =
  let len = Int32.to_int (Bytes.get_int32_le (read t ~region off ~len:4) 0) in
  if len < 0 then invalid_arg "Memory.get_string: corrupt length";
  Bytes.to_string (read t ~region (off + 4) ~len)

let set_string t ?(region = Data) off s =
  let b = Bytes.create (4 + String.length s) in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length s));
  Bytes.blit_string s 0 b 4 (String.length s);
  write t ~region off b

let string_footprint s = 4 + String.length s

let set_value t ?(region = Data) off v =
  let payload = Value.encode v in
  let b = Bytes.create (4 + Bytes.length payload) in
  Bytes.set_int32_le b 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 b 4 (Bytes.length payload);
  write t ~region off b

let get_value t ?(region = Data) off =
  let len = Int32.to_int (Bytes.get_int32_le (read t ~region off ~len:4) 0) in
  if len < 0 then invalid_arg "Memory.get_value: corrupt length";
  Value.decode (read t ~region (off + 4) ~len)

let value_footprint v = 4 + Value.size v
