(** Deterministic network fault injection.

    Faults are applied at delivery time, per frame and per
    destination.  A {!profile} describes a link's misbehaviour —
    probabilistic loss, duplication, delivery jitter, reordering, and
    bursty loss — and may be installed as the segment-wide default or
    per directed link.  On top of profiles sit hard link cuts
    (optionally timed: partitions that heal themselves) and an
    arbitrary payload filter for protocol-aware scripting (e.g. "drop
    every RaTP ack").

    All randomness is drawn from one stream split off the engine's
    root RNG, and draws happen in deterministic event order, so the
    whole fault schedule is reproducible from the simulation seed.
    Tests and experiments drive these to exercise RaTP
    retransmission, DSM recovery, transaction recovery, and PET
    failure tolerance. *)

type t

type profile = {
  drop : float;  (** per-frame loss probability *)
  dup : float;  (** per-frame duplication probability *)
  delay : Sim.Time.span;
      (** max extra delivery delay, uniform in [0, delay] *)
  reorder : float;
      (** probability a frame is additionally held back by
          [reorder_by], overtaking later traffic *)
  reorder_by : Sim.Time.span;
  burst : float;  (** probability a frame opens a loss burst *)
  burst_len : int;  (** frames lost per burst (including the opener) *)
}

val pristine : profile
(** Delivers everything, immediately, exactly once. *)

val create : Sim.Engine.t -> Sim.Rng.t -> t
(** A fault model that initially delivers everything. *)

val set_default : t -> profile -> unit
(** Profile applied to links without an override. *)

val set_link : t -> Address.t -> Address.t -> profile -> unit
(** Override the profile for one directed link. *)

val set_link_both : t -> Address.t -> Address.t -> profile -> unit

val set_drop_probability : t -> float -> unit
(** Uniform loss probability applied to every frame: shorthand for
    updating the default profile's [drop]. *)

val set_filter : t -> (src:Address.t -> dst:Address.t -> Frame.t -> bool) -> unit
(** Install a payload-aware filter consulted before the profile; a
    [false] return drops the frame (counted in {!drops}).  Used by
    scenarios to target specific protocol messages. *)

val clear_filter : t -> unit

val cut : t -> Address.t -> Address.t -> unit
(** Drop all frames from the first address to the second (one
    direction). *)

val cut_both : t -> Address.t -> Address.t -> unit
(** Cut both directions. *)

val heal : t -> Address.t -> Address.t -> unit
(** Undo {!cut} for that direction. *)

val heal_both : t -> Address.t -> Address.t -> unit

val partition_for : t -> Address.t -> Address.t -> Sim.Time.span -> unit
(** [partition_for t a b span] cuts both directions now and heals
    them [span] later. *)

val partition_between :
  t ->
  Address.t list ->
  Address.t list ->
  after:Sim.Time.span ->
  for_:Sim.Time.span ->
  unit
(** [partition_between t left right ~after ~for_] schedules a full
    bidirectional partition between the two sets of machines,
    starting [after] from now and healing [for_] later. *)

val plan : t -> src:Address.t -> dst:Address.t -> Frame.t -> Sim.Time.span list
(** Decide the fate of one frame for one destination: the extra
    delivery delay of each surviving copy ([[0]] for a normal
    delivery, [[]] for a loss, two elements for a duplication). *)

val drops : t -> int
(** Total frames dropped so far (cuts, filter, loss, bursts). *)

val duplicates : t -> int
(** Total frames duplicated so far. *)

val reorders : t -> int
(** Total frames held back for reordering so far. *)
