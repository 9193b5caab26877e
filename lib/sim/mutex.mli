(** Mutual-exclusion locks for simulated processes. *)

type t

val create : ?label:string -> unit -> t

val lock : t -> unit
(** Acquire, suspending while held.  FIFO handoff. *)

val unlock : t -> unit
(** Release; raises [Invalid_argument] if not locked. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f] holding the lock, releasing it on return
    or exception. *)

val locked : t -> bool
