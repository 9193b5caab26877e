(** The thread manager: user threads.

    A thread is the only form of user activity: a logical path of
    execution that enters objects via invocation and may span
    machines.  Starting a thread is a scheduling decision — the
    cluster picks a compute server (or the caller pins one) — and the
    thread runs its top-level invocation there, demand-paging the
    object in. *)

exception Failed of exn
(** Raised by {!join} when the thread's top-level invocation raised. *)

type t

val start :
  Object_manager.t ->
  ?origin:int ->
  ?on:int ->
  obj:Ra.Sysname.t ->
  entry:string ->
  Value.t ->
  t
(** Create a thread executing [entry] of [obj] with the argument.
    [origin] is the controlling workstation (terminal output routes
    there); [on] pins the compute server by address. *)

val id : t -> int
val node : t -> int
(** Address of the compute server the thread was scheduled on. *)

val join : t -> Value.t
(** Wait for completion and return the result.  Raises {!Failed}. *)

val try_join : t -> (Value.t, exn) result
(** Like {!join} without raising. *)

exception Cancelled
(** Result of a thread terminated by {!kill}. *)

val kill : t -> unit
(** Terminate the thread's process; joiners receive
    [Error Cancelled].  Any transaction it held must be aborted
    separately (the atomicity manager's failure-detector path). *)

val visited : Object_manager.t -> t -> Ra.Sysname.t list
(** Objects the thread has entered, most recent first. *)
