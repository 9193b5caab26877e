type mode = Read | Write

type fetch_data = Zeroed | Data of bytes

exception No_segment of Sysname.t

type t = {
  name : string;
  fetch : seg:Sysname.t -> page:int -> mode:mode -> fetch_data;
  writeback : seg:Sysname.t -> page:int -> bytes -> unit;
}

type merge = Add | Max

type consistency = One_copy | Release | Commutative of merge

(* Merge-operator contract: pages are arrays of 64-bit little-endian
   words.  A replica's delta against its base image is combined into
   the home copy word by word; [Add] deltas are differences (so
   concurrent increments sum), [Max] deltas are absolute values (so
   the largest write wins per word).  Both operators are commutative
   and associative, which is what makes the mode arbitration-free. *)

let words b = Bytes.length b / 8

let merge_delta op ~base ~current =
  let n = min (words base) (words current) in
  let out = Bytes.copy current in
  (match op with
  | Add ->
      for i = 0 to n - 1 do
        let o = i * 8 in
        Bytes.set_int64_le out o
          (Int64.sub (Bytes.get_int64_le current o) (Bytes.get_int64_le base o))
      done
  | Max -> ());
  out

let apply_merge op ~into delta =
  let n = min (words into) (words delta) in
  for i = 0 to n - 1 do
    let o = i * 8 in
    let a = Bytes.get_int64_le into o and d = Bytes.get_int64_le delta o in
    let v =
      match op with
      | Add -> Int64.add a d
      | Max -> if Int64.compare d a > 0 then d else a
    in
    Bytes.set_int64_le into o v
  done
