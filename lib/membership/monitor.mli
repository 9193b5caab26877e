(** Heartbeat failure detection and cluster membership views.

    One node hosts a monitor; every other node of interest is enrolled
    with {!watch}, which starts a lightweight heartbeat sender on the
    watched node (a [Heartbeat] RaTP datagram every [period]).  The
    monitor classifies each member by how long it has been silent:

    {v  Alive --silence > suspect_after--> Suspect
        Suspect --silence > dead_after--> Dead
        Suspect/Dead --heartbeat received--> Alive  v}

    Every transition bumps the view {e epoch} and synchronously
    notifies subscribers with the new view.  A [Dead] verdict is not
    final: a restarted node whose heartbeats resume is moved back to
    [Alive] (and a fresh epoch announces the rejoin) — this is what
    lets a recovered peer re-enter DSM copysets without a server
    restart.

    The sender and checker processes re-arm themselves forever, so a
    simulation that starts a monitor must call {!stop} before its main
    process finishes; otherwise {!Sim.exec} never drains the event
    queue. *)

type status = Alive | Suspect | Dead

type member = { addr : Net.Address.t; status : status }

type view = {
  epoch : int;  (** bumped on every status transition *)
  members : member list;  (** sorted by address *)
}

type config = {
  period : Sim.Time.span;  (** heartbeat send / check interval *)
  suspect_after : Sim.Time.span;  (** silence before [Suspect] *)
  dead_after : Sim.Time.span;  (** silence before [Dead] *)
}

type t

val create : ?config:config -> Ra.Node.t -> t
(** [create host] hosts a monitor on [host]: registers the heartbeat
    service on its endpoint and spawns the periodic checker (in
    [host]'s process group, so it dies with the machine). *)

val watch : t -> Ra.Node.t -> unit
(** Enroll a node.  Spawns its heartbeat sender in the global process
    group so a crash of the watched machine silences it (the [alive]
    guard) without killing it — heartbeats resume after restart.
    Idempotent per address. *)

val host : t -> Ra.Node.t
(** The node hosting the monitor. *)

val subscribe : t -> (view -> unit) -> unit
(** [subscribe t f] calls [f] with the new view after every epoch
    bump, in subscription order, synchronously from the transition
    site. *)

val view : t -> view
val epoch : t -> int

val status_of : t -> Net.Address.t -> status
(** [Alive] for addresses never enrolled. *)

val is_dead : t -> Net.Address.t -> bool

val usable : t -> Net.Address.t -> bool
(** Not [Dead] — suspects stay usable until condemned, matching the
    paper's optimistic use of a node until it is known lost. *)

val last_death : t -> Net.Address.t -> Sim.Time.t option
(** Instant of the most recent [Dead] verdict for this member, if
    any; survives a later rejoin (used to measure detection time). *)

val stop : t -> unit
(** Stop the checker and all heartbeat senders after their next
    wake-up; no further epoch bumps.  Required before the end of the
    simulation. *)

val metrics : t -> Sim.Stats.metric list
(** [mbr/heartbeats]: heartbeats received over the monitor's
    lifetime.  The epoch ({!epoch}) counts status transitions. *)
