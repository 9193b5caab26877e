(** Hash tables keyed by an int (a pid, an address, a service number,
    a page number), the int being its own hash: no runtime hash call
    per lookup. *)

include Hashtbl.S with type key = int
