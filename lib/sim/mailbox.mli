(** Unbounded FIFO mailboxes between processes.

    The NIC receive queue: senders never block; receivers suspend
    until a value is available. *)

type 'a t

val create : string -> 'a t
(** [create label] is an empty mailbox; [label] aids debugging. *)

val send : 'a t -> 'a -> unit
(** Enqueue a value, waking one waiting receiver if any.  A receiver
    that died while waiting is skipped, so the value goes to the next
    one or stays queued.  Callable from engine context or from a
    process. *)

val recv : 'a t -> 'a
(** Dequeue a value, suspending while the mailbox is empty.  Multiple
    waiting receivers are served in FIFO order. *)

val try_recv : 'a t -> 'a option
(** Dequeue without suspending. *)

val length : 'a t -> int
(** Values currently queued. *)
