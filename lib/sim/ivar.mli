(** Write-once synchronization variables.

    An ivar starts empty; {!fill} sets it exactly once and wakes every
    reader.  Reading an empty ivar suspends the calling process. *)

type 'a t

val create : ?label:string -> unit -> 'a t
(** [label] names the wait of a suspended reader (default ["ivar"]). *)

val fill : 'a t -> 'a -> unit
(** [fill t v] sets the value.  Raises [Invalid_argument] if already
    full.  May be called from engine context or from a process. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns false instead of raising when full. *)

val read : 'a t -> 'a
(** [read t] returns the value, suspending until it is available.
    Must be called from a process. *)

val read_timeout : 'a t -> Time.span -> 'a option
(** [read_timeout t span] is like {!read} but returns [None] if the
    ivar is still empty after [span].  A fill cancels the deadline,
    and a timed-out reader is unregistered, so repeated polling
    leaves no state behind.  The value of a later fill stays in the
    ivar. *)

val peek : 'a t -> 'a option
(** [peek t] is the value if available, without suspending. *)

val waiters : 'a t -> int
(** Readers currently suspended on an empty ivar.  Exposed so tests
    can check that timed-out readers are unregistered. *)
