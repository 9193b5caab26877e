(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation.  Using integers keeps the simulation deterministic:
    two events scheduled from the same history always compare the
    same way on every run. *)

type t = int
(** An absolute instant, in nanoseconds from simulation start. *)

type span = int
(** A duration in nanoseconds.  Spans are non-negative in all public
    constructors. *)

val zero : t
(** The simulation epoch. *)

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a span of [n] seconds. *)

val of_ms_f : float -> span
(** [of_ms_f x] is a span of [x] milliseconds, rounded to the nearest
    nanosecond. *)

val of_us_f : float -> span
(** [of_us_f x] is a span of [x] microseconds, rounded to the nearest
    nanosecond. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff a b] is [a - b]. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in milliseconds, for reporting. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] expressed in microseconds, for reporting. *)

val compare : t -> t -> int
(** Total order on instants. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print an instant as milliseconds with three decimals. *)
