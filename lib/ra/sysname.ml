type t = { node : int; local : int }

let equal a b = a.node = b.node && a.local = b.local

let compare a b =
  match Int.compare a.node b.node with
  | 0 -> Int.compare a.local b.local
  | c -> c

(* [Hashtbl.hash] of a record of ints, or of a pair of ints and such
   a record, without the pair or the C call: the runtime's MurmurHash3
   steps over the same values in the same order (each block's header,
   then its fields, breadth first), in 32-bit arithmetic.  An int is
   mixed as its tagged machine word [2n+1] folded to 32 bits, and a
   two-field block's header as 2048. *)
module Murmur = struct
  let mask = 0xFFFF_FFFF
  let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let[@inline] mix h d =
    let d = rotl ((d * 0xcc9e2d51) land mask) 15 in
    let d = (d * 0x1b873593) land mask in
    let h = rotl (h lxor d) 13 in
    ((h * 5) + 0xe6546b64) land mask

  let[@inline] mix_int h x =
    mix h ((x asr 31) lxor (x asr 62) lxor ((x lsl 1) lor 1) land mask)

  let[@inline] final h =
    let h = h lxor (h lsr 16) in
    let h = (h * 0x85ebca6b) land mask in
    let h = h lxor (h lsr 13) in
    let h = (h * 0xc2b2ae35) land mask in
    (h lxor (h lsr 16)) land 0x3FFF_FFFF

  let two_fields = 2048
end

(* [Hashtbl.hash t]: the value tables have always walked by, so they
   keep their order. *)
let hash t =
  Murmur.(final (mix_int (mix_int (mix 0 two_fields) t.node) t.local))

type gen = { g_node : int; mutable g_next : int }

let make_gen ~node = { g_node = node; g_next = 0 }

let fresh g =
  let local = g.g_next in
  g.g_next <- local + 1;
  { node = g.g_node; local }

let well_known k = { node = -1; local = k }

let to_string t =
  let node = string_of_int t.node and local = string_of_int t.local in
  let ln = String.length node and ll = String.length local in
  let b = Bytes.create (4 + ln + 1 + ll) in
  Bytes.blit_string "SYS-" 0 b 0 4;
  Bytes.blit_string node 0 b 4 ln;
  Bytes.set b (4 + ln) '.';
  Bytes.blit_string local 0 b (5 + ln) ll;
  Bytes.unsafe_to_string b

(* The integer at [s.[i]], read as Scanf's [%d] reads one: an optional
   sign, a digit, then digits and ignored underscores; a value outside
   [min_int, max_int] is no integer.  The digits accumulate negated,
   so [min_int] fits.  Returns the value and the index after it;
   raises [Exit] if there is none. *)
let int_at s i =
  let n = String.length s in
  let neg = i < n && s.[i] = '-' in
  let i = if i < n && (neg || s.[i] = '+') then i + 1 else i in
  if i >= n || s.[i] < '0' || s.[i] > '9' then raise Exit;
  let acc = ref 0 and i = ref i in
  while
    !i < n
    &&
    let c = s.[!i] in
    (c >= '0' && c <= '9') || c = '_'
  do
    let c = s.[!i] in
    if c <> '_' then begin
      let d = Char.code c - Char.code '0' in
      if !acc < min_int / 10 || (!acc * 10) < min_int + d then raise Exit;
      acc := (!acc * 10) - d
    end;
    incr i
  done;
  if neg then (!acc, !i)
  else if !acc = min_int then raise Exit
  else (- !acc, !i)

let of_string s =
  let n = String.length s in
  match
    if not (String.starts_with ~prefix:"SYS-" s) then raise Exit;
    let node, i = int_at s 4 in
    if i >= n || s.[i] <> '.' then raise Exit;
    let local, i = int_at s (i + 1) in
    if i <> n then raise Exit;
    { node; local }
  with
  | t -> Some t
  | exception Exit -> None

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

type sysname = t

(* [Hashtbl.hash (seg, page)]: the pair's header, the record's, then
   [page], [node] and [local]. *)
let page_hash ((seg : sysname), page) =
  Murmur.(
    final
      (mix_int
         (mix_int (mix_int (mix (mix 0 two_fields) two_fields) page) seg.node)
         seg.local))

module Page_table = Hashtbl.Make (struct
  type nonrec t = t * int

  let equal ((a : sysname), (p : int)) (b, q) = p = q && equal a b
  let hash = page_hash
end)
