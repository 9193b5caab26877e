(** Mutual-exclusion locks for simulated processes. *)

type t

val create : ?label:string -> unit -> t

val lock : t -> unit
(** Acquire, suspending while held.  FIFO handoff. *)

val acquire : t -> (unit -> bool) -> bool
(** [acquire t waker] takes the lock at once and returns true if it is
    free; otherwise it queues [waker] behind the other waiters and
    returns false.  The unlock that hands the lock over calls
    [waker ()] in the unlocker's context: it returns true to take the
    lock, or false if its owner is gone, and the lock passes on.  For
    engine-context code, which cannot suspend. *)

val unlock : t -> unit
(** Release; raises [Invalid_argument] if not locked. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f] holding the lock, releasing it on return
    or exception. *)

val locked : t -> bool
