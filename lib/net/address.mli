(** Network addresses.

    Every machine on the simulated Ethernet has one address; the
    simulation uses small integers, unique per cluster. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
