(* Region layout:
     [0..8)   magic
     [8..16)  bump pointer (next never-used byte)
     [16..24) free-list head (0 = empty)
     [24..32) allocated payload bytes
   Block layout, at offset b:
     [b..b+8)   payload size
     [b+8..b+16) next free block (meaningful while on the free list)
     [b+16..)    payload
   Payload offsets handed out point at b+16. *)

type t = { memory : Memory.t; reg : Memory.region }

let magic = 0x436c6f756473_48 (* "Clouds-H" ish *)
let header_bytes = 32
let block_header = 16

let off_magic = 0
let off_bump = 8
let off_free = 16
let off_live = 24

let attach memory reg =
  let t = { memory; reg } in
  if Memory.get_int memory ~region:reg off_magic <> magic then begin
    Memory.set_int memory ~region:reg off_magic magic;
    Memory.set_int memory ~region:reg off_bump header_bytes;
    Memory.set_int memory ~region:reg off_free 0;
    Memory.set_int memory ~region:reg off_live 0
  end;
  t

let get t off = Memory.get_int t.memory ~region:t.reg off
let set t off v = Memory.set_int t.memory ~region:t.reg off v

(* First fit on the free list. *)
let take_from_free_list t n =
  let rec walk prev cur =
    if cur = 0 then None
    else begin
      let size = get t cur in
      let next = get t (cur + 8) in
      if size >= n then begin
        (if prev = 0 then set t off_free next else set t (prev + 8) next);
        Some cur
      end
      else walk cur next
    end
  in
  walk 0 (get t off_free)

let alloc t n =
  if n <= 0 then invalid_arg "Pheap.alloc: non-positive size";
  let block =
    match take_from_free_list t n with
    | Some b -> b
    | None ->
        let bump = get t off_bump in
        let needed = bump + block_header + n in
        if needed > Memory.region_size t.memory t.reg then raise Out_of_memory;
        set t off_bump needed;
        set t bump n;
        bump
  in
  set t (block + 8) 0;
  set t off_live (get t off_live + get t block);
  block + block_header

let free t payload_off =
  let block = payload_off - block_header in
  if block < header_bytes then invalid_arg "Pheap.free: bad offset";
  let size = get t block in
  if size <= 0 || block + block_header + size > get t off_bump then
    invalid_arg "Pheap.free: not an allocated block";
  set t (block + 8) (get t off_free);
  set t off_free block;
  set t off_live (get t off_live - size)

let allocated_bytes t = get t off_live
