include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : t) = i land max_int
end)
