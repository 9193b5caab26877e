type prot = Read_only | Read_write

type mapping = {
  base : int;
  len : int;
  seg : Sysname.t;
  prot : prot;
}

(* each mapping with the offset of its window within the segment,
   sorted by base *)
type t = { mutable maps : (mapping * int) list }

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
  let m = { base; len; seg; prot } in
  if List.exists (fun (o, _) -> overlaps m o) t.maps then
    invalid_arg "Virtual_space.map: overlapping mapping";
  t.maps <-
    List.sort
      (fun (a, _) (b, _) -> Int.compare a.base b.base)
      ((m, seg_off) :: t.maps)

let unmap t ~base =
  if not (List.exists (fun (m, _) -> m.base = base) t.maps) then
    raise Not_found;
  t.maps <- List.filter (fun (m, _) -> m.base <> base) t.maps

let translate t addr =
  let rec find = function
    | [] -> None
    | (m, seg_off) :: rest ->
        if addr >= m.base && addr < m.base + m.len then
          Some (m, seg_off + (addr - m.base))
        else find rest
  in
  find t.maps

let segments t =
  List.fold_left
    (fun acc (m, _) ->
      if List.exists (Sysname.equal m.seg) acc then acc else m.seg :: acc)
    [] t.maps
  |> List.rev
