(** Network interfaces.

    A NIC owns the receive queue for one address.  Receiving charges
    the simulated host-side cost of taking the interrupt and copying
    the frame, so protocol stacks above see realistic per-frame
    processing time.  A detached NIC (crashed machine) silently drops
    deliveries. *)

type t = {
  addr : Address.t;
  rx : Frame.t Sim.Mailbox.t;
  recv_cost_per_frame : Sim.Time.span;
  recv_cost_per_byte_ns : int;
  mutable attached : bool;
}

val create :
  addr:Address.t ->
  recv_cost_per_frame:Sim.Time.span ->
  recv_cost_per_byte_ns:int ->
  t

val deliver : t -> Frame.t -> unit
(** Enqueue a frame if attached; drop otherwise.  Engine context is
    fine. *)

val recv : t -> Frame.t
(** Dequeue the next frame (suspending as needed) and charge the
    receive cost. *)

val try_recv : t -> Frame.t option
(** Dequeue without suspending and without charging cost (tests). *)

val set_attached : t -> bool -> unit
