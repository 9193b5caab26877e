(** Invocation values.

    Arguments and results of object invocations are strictly data —
    never addresses — because addresses in one object are meaningless
    in another.  This type makes that restriction structural: there
    is no constructor for a pointer.  Values have a wire size (used
    for transfer timing) and a byte codec (used to store them in
    persistent object memory). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | List of t list

val size : t -> int
(** Serialized size in bytes. *)

val encode : t -> bytes
val decode : bytes -> t
(** [decode (encode v) = v].  Raises [Invalid_argument] on malformed
    input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Convenience accessors} — raise [Invalid_argument] on the wrong
    constructor. *)

val to_int : t -> int
val to_string : t -> string
val to_bool : t -> bool
val to_pair : t -> t * t
val to_list : t -> t list

val of_sysname : Ra.Sysname.t -> t
(** Sysnames travel as strings: they are names, not addresses. *)

val to_sysname : t -> Ra.Sysname.t
