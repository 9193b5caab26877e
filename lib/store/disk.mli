(** A simulated disk.

    Requests serialize on the device; each costs a positioning delay
    plus a size-proportional transfer.  Page reads on data servers are
    normally served from the in-memory segment store (the prototype
    kept objects in Unix files, hot in the buffer cache); the disk is
    what makes write-ahead logging and commits cost something.

    The device tracks its head position just enough to model a
    dedicated log zone: {!append} operations that follow each other
    with no intervening {!read}/{!write} keep the head at the log tail
    and pay only the (cheaper) rotational delay [rot] instead of a
    full seek.  This is what a group-commit daemon exploits — a batch
    of log records forced in one sequential append costs one
    positioning delay total. *)

type config = {
  seek : Sim.Time.span;  (** average positioning cost, arm + rotation *)
  transfer_per_8k : Sim.Time.span;
  rot : Sim.Time.span;
      (** rotational wait for a forced sequential append when the head
          is already parked at the log tail (no arm movement) *)
}

type t

val create : ?config:config -> string -> t
(** [create label] is an idle disk. *)

val write : t -> bytes:int -> unit
(** Synchronous write of [bytes]; blocks through queueing, seek and
    transfer.  Moves the head away from the log tail. *)

val read : t -> bytes:int -> unit
(** Synchronous read timing (contents are tracked by the caller).
    Moves the head away from the log tail. *)

val append : t -> bytes:int -> unit
(** Sequential write at the log tail.  Costs [rot] instead of [seek]
    when the previous operation was also an append, plus the same
    size-proportional transfer as {!write}. *)

val metrics : t -> Sim.Stats.metric list
(** [disk/ops] (operations performed), [disk/bytes], [disk/busy_us]
    (accumulated device busy time, in microseconds) and
    [disk/queue_depth] (queue depth sampled at each request arrival,
    including the arriving request and any in service). *)
