(** Deterministic discrete-event simulation toolkit.

    This is the root module of the [sim] library; it re-exports the
    submodules and the direct-style process operations.  A typical
    client creates an {!Engine.t}, spawns processes, and drives
    everything with {!Engine.run}.  The blocking primitives are the
    ones the system uses: {!Ivar} (a one-shot result, optionally read
    with a deadline, as RaTP awaits a reply), {!Mailbox} (the NIC
    receive queue), {!Semaphore} and {!Mutex}.  Each hands a wakeup
    past a process that died while waiting. *)

module Time = Time
module Rng = Rng
module Engine = Engine
module Ivar = Ivar
module Mailbox = Mailbox
module Semaphore = Semaphore
module Mutex = Mutex
module Stats = Stats
module Fanout = Fanout

exception Killed
(** Alias of {!Engine.Killed}. *)

(** {1 Process operations}

    Usable only inside a process spawned on an engine. *)

val engine : unit -> Engine.t
val now : unit -> Time.t
val self : unit -> Engine.pid
val sleep : Time.span -> unit
val yield : unit -> unit
val suspend : string -> (('a -> bool) -> unit) -> 'a
val spawn : ?group:int -> string -> (unit -> unit) -> Engine.pid

val after : Time.span -> (unit -> unit) -> unit
(** [after span thunk] schedules [thunk] to run in engine context
    [span] from now. *)

(** {1 Running} *)

val exec : ?seed:int -> (unit -> 'a) -> 'a
(** [exec f] creates an engine, runs [f] as a process to completion,
    and returns its result.  Raises [Failure] if the event queue
    drains before [f] finishes (deadlock). *)

val exec_on : Engine.t -> (unit -> 'a) -> 'a
(** Like {!exec} on an existing engine: spawns [f], runs the engine
    until idle, and returns [f]'s result or raises on deadlock. *)
