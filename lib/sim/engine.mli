(** The discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    work.  Simulated activities are {e processes}: ordinary OCaml
    functions that use the direct-style operations of {!Process}
    (re-exported by {!Sim}), implemented with effect handlers.
    Events scheduled for the same instant run in scheduling order, so
    the whole simulation is deterministic.

    A process belongs to at most one {e group} (in practice, the node
    it runs on); {!kill_group} terminates every process of a group,
    modelling a machine crash. *)

type t

type pid = int
(** Process identifier, unique within an engine. *)

exception Killed
(** Raised inside a process when it is killed.  Processes must not
    swallow this exception. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh engine with its clock at
    {!Time.zero}.  The default seed is 42. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root random stream. *)

val spawn : t -> ?group:int -> string -> (unit -> unit) -> pid
(** [spawn t name f] schedules process [f] to start at the current
    instant.  [name] appears in error reports. *)

type timer
(** A scheduled thunk that can still be cancelled. *)

val timer : t -> Time.t -> (unit -> unit) -> timer
(** [timer t time thunk] schedules [thunk] to run in engine context at
    [time] (or now, if [time] is in the past) and returns a handle for
    {!cancel}.  The thunk must not use the process operations of
    {!Process}; it may wake suspended processes (fill ivars, send to
    mailboxes, ...).  Events at the same instant run in scheduling
    order. *)

val cancel : t -> timer -> unit
(** [cancel t timer] removes a pending timer from the queue in
    O(log n): it never runs, it no longer counts in {!pending}, and
    its closure is released at once rather than at its deadline.  A
    no-op once the timer has fired or been cancelled. *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t time thunk] is [ignore (timer t time thunk)]: a timer that
    is never cancelled. *)

val kill : t -> pid -> unit
(** Terminate a process.  If it is suspended it receives {!Killed}
    immediately; if it is running it dies at its next suspension
    point.  Killing a finished or already-dead process is a no-op. *)

val kill_group : t -> int -> unit
(** Kill every live process of a group, in pid order. *)

val on_terminate : t -> pid -> (unit -> unit) -> unit
(** Run a callback (in engine context) when the process finishes,
    fails, or is killed; runs immediately if it is already gone.
    Used to observe processes that may die without producing a
    result (machine crashes). *)

val alive : t -> pid -> bool
(** [alive t pid] is true while the process has neither finished nor
    been killed. *)

val procs : t -> (pid * string) list
(** Live processes, in pid order.  For debugging and tests (e.g.
    asserting that a restart did not leak a duplicate daemon). *)

val run : ?until:Time.t -> t -> unit
(** Drain the event queue, advancing the clock, until it is empty or
    the clock would pass [until].  Uncaught exceptions from processes
    propagate out of [run]. *)

val step : t -> bool
(** Execute the single next event.  Returns false if the queue was
    empty. *)

val pending : t -> int
(** Number of events waiting in the queue: cancelled timers and fired
    events are not counted.  Tests use it to check that no watchdog
    outlives its purpose. *)

(** Direct-style operations available inside a process.  The engine
    that {!run} or {!step} is driving is held in a module-level value
    (saved and restored around each call, so nested engines work), so
    {!engine}, {!now}, {!self} and {!spawn} are plain loads.  Outside a
    process — at top level, or in a timer thunk — they raise
    [Invalid_argument]; {!sleep}, {!yield} and {!suspend} raise
    [Effect.Unhandled]. *)
module Process : sig
  val engine : unit -> t
  (** The engine running the current process. *)

  val now : unit -> Time.t
  (** Current virtual time. *)

  val self : unit -> pid
  (** Pid of the current process. *)

  val sleep : Time.span -> unit
  (** Suspend for a virtual duration. *)

  val yield : unit -> unit
  (** Let every other runnable process scheduled at this instant run
      first. *)

  val suspend : string -> (('a -> bool) -> unit) -> 'a
  (** [suspend label register] parks the process and calls
      [register wake] in engine context.  The process resumes with
      [v] when [wake v] is first called and returns true; a false
      return means the process is already woken or dead and the
      caller should hand the wakeup to someone else (crash safety
      for lock handoffs).  [register] must not use process
      operations. *)

  val spawn : ?group:int -> string -> (unit -> unit) -> pid
  (** Spawn a sibling process.  It inherits no state; [group]
      defaults to the spawning process's group. *)
end
