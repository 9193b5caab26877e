(** System names.

    Every segment and object in Clouds has a sysname: a bit string
    unique across the whole distributed system, forming a flat
    system-wide name space.  We build uniqueness structurally from
    the generating node's id plus a per-node counter, which also
    keeps runs deterministic. *)

type t = private { node : int; local : int }

val equal : t -> t -> bool
val compare : t -> t -> int

type gen
(** A per-node sysname generator. *)

val make_gen : node:int -> gen
(** Generator for names minted at [node].  Distinct nodes yield
    disjoint names. *)

val fresh : gen -> t

val well_known : int -> t
(** [well_known k] is a reserved name (node = -1) agreed on by every
    node at configuration time, e.g. the name server's own sysname. *)

val to_string : t -> string

val of_string : string -> t option
(** Parse the {!to_string} form.  Sysnames cross machine boundaries
    as strings (names, never addresses). *)

(** Hash tables keyed by sysname. *)
module Table : Hashtbl.S with type key = t

(** Hash tables keyed by a (segment, page) pair.  The hash is
    [Hashtbl.hash (seg, page)] computed without allocating or calling
    the runtime, so a table walks its bindings in the order a
    polymorphic [Hashtbl] keyed by the pair did. *)
module Page_table : Hashtbl.S with type key = t * int
