(** Write-once synchronization variables.

    An ivar starts empty; {!fill} sets it exactly once and wakes every
    reader.  Reading an empty ivar suspends the calling process. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** [fill t v] sets the value.  Raises [Invalid_argument] if already
    full.  May be called from engine context or from a process. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns false instead of raising when full. *)

val read : 'a t -> 'a
(** [read t] returns the value, suspending until it is available.
    Must be called from a process. *)

val peek : 'a t -> 'a option
(** [peek t] is the value if available, without suspending. *)
