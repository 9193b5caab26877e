(** A node's processor.

    At most one schedulable entity computes at a time; work is
    expressed as [consume] calls that occupy the CPU for a simulated
    duration.  Arbitration is FIFO.  When occupancy passes from one
    entity to another the configured context-switch cost is charged,
    which is exactly the quantity the paper reports as 0.14 ms.
    Work longer than the 10 ms preemption slice is interleaved with
    other entities' requests. *)

type t

val create : ?context_switch:Sim.Time.span -> unit -> t
(** [context_switch] defaults to {!Params.default}'s value. *)

val consume : t -> key:int -> Sim.Time.span -> unit
(** [consume t ~key span] runs [span] of work on behalf of the
    schedulable entity [key] (thread or isiba id), waiting for the
    CPU first.  Charges a context switch when [key] differs from the
    previous occupant. *)

val switches : t -> int
(** Context switches charged so far. *)

val busy : t -> Sim.Time.span
(** Total occupied time, including switch costs. *)

val load : t -> int
(** Schedulable entities currently running on or waiting for this
    processor — the quantity a load-based scheduling policy compares
    (the paper's "load at each compute server"). *)
