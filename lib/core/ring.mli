(** Consistent-hash ring over data-server addresses with virtual
    nodes.  Placement is a pure function of the member set, so every
    node that holds the same membership view computes the same owner
    for a key without coordination, and adding or removing one member
    moves only the arcs adjacent to its virtual nodes (expected K/n of
    the keys). *)

type t

(** [make members] builds a ring over the given addresses
    (deduplicated, order-insensitive), with 64 virtual nodes per
    member to smooth the arc distribution.
    @raise Invalid_argument if [members] is empty. *)
val make : Net.Address.t list -> t

val members : t -> Net.Address.t list

(** Hashes, exposed so callers (and tests) can agree on key
    derivation. *)
val key_of_int : int -> int

val key_of_string : string -> int
val key_of_sysname : Ra.Sysname.t -> int

(** Owner of the arc containing [key]. *)
val owner : t -> int -> Net.Address.t

val owner_of_string : t -> string -> Net.Address.t
val owner_of_sysname : t -> Ra.Sysname.t -> Net.Address.t

(** Distinct members in arc order starting at [key]'s slot — the
    preference list to walk when the primary owner is down. *)
val successors : t -> int -> Net.Address.t list

(** Did [key]'s owner change between two rings? *)
val moved : before:t -> after:t -> int -> bool
