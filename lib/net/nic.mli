(** Network interfaces.

    A NIC owns the receive queue for one address.  Receiving charges
    the simulated host-side cost of taking the interrupt and copying
    the frame, so protocol stacks above see realistic per-frame
    processing time.  A detached NIC (crashed machine) silently drops
    deliveries.

    A NIC is read one of two ways.  An owner that {!listen}s (a RaTP
    endpoint) has every frame received for it in engine context: one
    frame at a time, in arrival order, each after its receive cost,
    then handed to the owner's handler.  Otherwise a process calls
    {!recv} and is charged the cost itself (the T2 calibration and the
    FTP/NFS baselines). *)

type t

val create :
  Sim.Engine.t ->
  addr:Address.t ->
  recv_cost_per_frame:Sim.Time.span ->
  recv_cost_per_byte_ns:int ->
  t

val deliver : t -> Frame.t -> unit
(** Enqueue a frame if attached; drop otherwise.  Engine context is
    fine. *)

val listen : t -> group:int option -> (Frame.t -> unit) -> unit
(** [listen t ~group handler] makes [handler] the NIC's owner, replacing
    any previous one.  Starting in an event of its own, the NIC takes
    each queued frame in turn, charges its receive cost and calls
    [handler frame] in engine context; [handler] must not block.  The
    receive is an {!Sim.Engine.task} of [group]: a kill drops the
    frame in receive, and frames still queued wait for the next
    [listen]. *)

val recv : t -> Frame.t
(** Dequeue the next frame (suspending as needed) and charge the
    receive cost, for a NIC without an owner. *)

val try_recv : t -> Frame.t option
(** Dequeue without suspending and without charging cost (tests). *)

val set_attached : t -> bool -> unit
