(** A shared-bus 10 Mbit Ethernet.

    One segment connects every machine in the cluster, as in the
    paper's prototype.  Transmissions serialize on the bus (CSMA/CD
    modeled as FIFO arbitration); a frame occupies the wire for its
    size divided by the bandwidth plus a fixed gap, then arrives at
    the destination NIC(s) after the propagation delay, unless the
    fault model drops it.  Host-side costs are charged to the sender
    ({!transmit}, or a {!sender}'s owner, which overlaps them with
    the wire time of earlier frames) and to the receiver
    ({!Nic.listen} or {!Nic.recv}).

    A frame's passage over the bus is a chain of engine events: wait
    for the bus (FIFO), hold it for the wire time, count the frame and
    schedule its arrival, release the bus.  A {!sender} runs that
    chain for engine-context code (RaTP's bursts); {!transmit} parks
    the calling process on it. *)

type config = {
  bandwidth_bps : int;  (** wire speed; 10 Mbit/s in the paper *)
  propagation : Sim.Time.span;  (** end-to-end signal delay *)
  frame_gap : Sim.Time.span;  (** preamble + interframe gap *)
  mtu_payload : int;  (** max payload bytes per frame *)
  send_cost_per_frame : Sim.Time.span;  (** host driver cost, sending *)
  recv_cost_per_frame : Sim.Time.span;  (** host driver cost, receiving *)
  cost_per_byte_ns : int;  (** host copy cost per byte, each side *)
}

val default_config : config
(** Calibrated so that a 72-byte round trip costs about 2.4 ms, as
    measured in the paper (§4.3). *)

type t

val create : Sim.Engine.t -> ?config:config -> unit -> t

val config : t -> config
val fault : t -> Fault.t
val engine : t -> Sim.Engine.t

val attach : t -> Address.t -> Nic.t
(** Join the segment.  Raises [Invalid_argument] if the address is
    taken. *)

val nic : t -> Address.t -> Nic.t option

val detach : t -> Address.t -> unit
(** Take the NIC offline (machine crash).  Frames to it are dropped. *)

val reattach : t -> Address.t -> unit

val transmit : t -> Frame.t -> unit
(** Send a frame from a process: charges the sender's host cost,
    waits for the bus, occupies it for the wire time, and schedules
    delivery; returns when the bus is released.  Raises
    [Invalid_argument] if the payload exceeds the MTU. *)

type sender
(** One frame at a time over the bus, driven by engine events, for a
    sender that charges its host cost itself. *)

val sender : t -> sender
(** An idle sender. *)

val put : sender -> Frame.t -> (unit -> unit) -> unit
(** [put s frame sent] starts the frame's passage: take the bus now if
    it is free, or queue for it.  [sent ()] is called in engine
    context when the passage ends: the bus released after the frame
    was counted and its arrival scheduled, or, after {!abort}, the bus
    passed on at a grant the sender no longer wants.  The sender must
    be idle: new, or past the [sent] of its last passage.  Raises
    [Invalid_argument] if the payload exceeds the MTU. *)

val abort : sender -> bool
(** Stop the sender where a killed sending process stopped: a frame
    waiting for the bus gives up its place; a frame on the wire is
    neither counted nor delivered, and the bus is released in an
    event scheduled now; a sender granted the bus in this instant
    passes it on when the grant's event fires, and then calls
    [sent].  Returns false only in that last case: the owner of a
    parked process resumes it from [sent] (see
    {!Sim.Engine.Process.park}). *)

val host_send_cost : config -> Frame.t -> Sim.Time.span
(** Sender-side driver cost {!transmit} charges for a frame. *)

val wire_time : config -> int -> Sim.Time.span
(** [wire_time cfg bytes] is bus occupancy for a frame of that size. *)

val frames_sent : t -> int
val bytes_sent : t -> int
