(** Seeded, splittable pseudo-random numbers.

    Every source of randomness in the simulation flows from a single
    seed so that runs are reproducible.  [split] derives an
    independent stream, used to give each subsystem its own source
    without coupling their consumption order. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh deterministic stream. *)

val split : t -> t
(** [split t] derives a new stream from [t]; [t] advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
