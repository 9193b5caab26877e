type t = { node : int; local : int }

let equal a b = a.node = b.node && a.local = b.local

let compare a b =
  match Int.compare a.node b.node with
  | 0 -> Int.compare a.local b.local
  | c -> c

(* The record hashes like the (node, local) pair it holds, so tables
   keep their order, and no pair is built per lookup. *)
let hash (t : t) = Hashtbl.hash t

type gen = { g_node : int; mutable g_next : int }

let make_gen ~node = { g_node = node; g_next = 0 }

let fresh g =
  let local = g.g_next in
  g.g_next <- local + 1;
  { node = g.g_node; local }

let well_known k = { node = -1; local = k }

let to_string t = Printf.sprintf "SYS-%d.%d" t.node t.local

let of_string s =
  match Scanf.sscanf s "SYS-%d.%d%!" (fun node local -> { node; local }) with
  | t -> Some t
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
