type prot = Read_only | Read_write

type mapping = {
  base : int;
  len : int;
  seg : Sysname.t;
  seg_off : int;
  prot : prot;
}

type t = { mutable maps : mapping list (* sorted by base *) }

let create () = { maps = [] }

let aligned n = n mod Page.size = 0

let overlaps a b =
  a.base < b.base + b.len && b.base < a.base + a.len

let map t ~base ~len ?(seg_off = 0) ~prot seg =
  if len <= 0 then invalid_arg "Virtual_space.map: empty mapping";
  if not (aligned base && aligned len) then
    invalid_arg "Virtual_space.map: unaligned mapping";
  if seg_off < 0 || not (aligned seg_off) then
    invalid_arg "Virtual_space.map: bad segment offset";
  let m = { base; len; seg; seg_off; prot } in
  if List.exists (overlaps m) t.maps then
    invalid_arg "Virtual_space.map: overlapping mapping";
  t.maps <- List.sort (fun a b -> Int.compare a.base b.base) (m :: t.maps)

let unmap t ~base =
  if not (List.exists (fun m -> m.base = base) t.maps) then raise Not_found;
  t.maps <- List.filter (fun m -> m.base <> base) t.maps

let translate t addr =
  let rec find = function
    | [] -> None
    | m :: rest ->
        if addr >= m.base && addr < m.base + m.len then
          Some (m, m.seg_off + (addr - m.base))
        else find rest
  in
  find t.maps

let segments t =
  List.fold_left
    (fun acc m -> if List.exists (Sysname.equal m.seg) acc then acc else m.seg :: acc)
    [] t.maps
  |> List.rev
