(** The DSM server: the system object running on every data server.

    It is the fixed distributed manager (in the Li–Hudak sense) for
    the segments it stores: it tracks, per page, the current owner
    (a compute server holding a write copy) and the copyset (nodes
    holding read copies), and preserves one-copy semantics by
    downgrading or invalidating remote copies before granting
    conflicting access.  It also provides the synchronization support
    the paper assigns to data servers: segment-level locks for
    consistency-preserving threads, and the participant side of
    two-phase commit, which it dispatches to its {!Participant}. *)

type t

val create :
  Ra.Node.t ->
  ?group_commit_window:Sim.Time.span ->
  ?checkpoint_every:Sim.Time.span ->
  ?consistency:(Ra.Sysname.t -> Ra.Partition.consistency) ->
  unit ->
  t
(** Install the DSM service on a data-server node.  State in
    {!Store.Segment_store} and the write-ahead log survives crashes;
    ownership, locks and prepared-transaction tables are volatile.

    Write-fault invalidations — owner recall plus every copyset
    member — go out as one concurrent fan-out, so a write fault costs
    one round trip regardless of copyset size
    ({!Experiments.Write_fault_fanout}).

    [group_commit_window] and [checkpoint_every] configure the
    server's two-phase-commit participant and its log
    ({!Participant.create}); left unset, every log record is forced
    with its own synchronous disk write and no checkpoint is cut.

    [consistency] maps a segment to its coherence mode (default: all
    [One_copy]), the same lookup the clients get
    ({!Dsm_client.create}); the server keeps no copy of its own.
    [Release] defers write-fault invalidation to the flush that lands
    the scope's dirty pages, batching one [Inval_batch] RPC per
    copyset member in a single fan-out; [Commutative] segments never
    invalidate and combine flushed deltas under their merge
    operator. *)

val node : t -> Ra.Node.t
val store : t -> Store.Segment_store.t
val directory : t -> Store.Directory.t
val participant : t -> Participant.t
(** The server's two-phase-commit participant: [Prepare], [Commit]
    and [Abort] messages are handed to it, and it owns the log. *)

val recover : t -> unit
(** Run after {!Ra.Node.restart}: clear volatile coherence and lock
    state, then let the participant replay its log and re-take the
    locks of every transaction left in doubt ({!Participant.recover}).
    Nothing here blocks, so it may be called from an engine
    callback. *)

val apply_view : t -> Membership.Monitor.view -> unit
(** Fold a membership view into the suspect table: [Dead] members are
    skipped by coherence fan-outs, an [Alive] verdict clears the
    suspicion — even if the peer never sends this server a request —
    and [Suspect] leaves any local timeout evidence standing
    (probation).  This replaces the old behaviour where one RaTP
    timeout marked a peer suspect forever. *)

val suspected : t -> Net.Address.t list
(** Peers currently skipped by coherence fan-outs; sorted (tests). *)

val set_mirrors : t -> (Ra.Sysname.t -> Net.Address.t list) -> unit
(** Wire the backup map for replicated segments: committed writes
    (writebacks, merges, [Overwrite], 2PC commit application) are
    forwarded as [Mirror_writes] to each listed backup.  The cluster
    arranges that only a segment's current primary has backups listed,
    and backups apply without re-forwarding, so forwarding cannot
    loop. *)

val owner_of : t -> Ra.Sysname.t -> int -> Net.Address.t option
(** Current write owner of a page (tests). *)

val copyset_of : t -> Ra.Sysname.t -> int -> Net.Address.t list
(** Nodes holding read copies (tests); sorted. *)

val metrics : t -> Sim.Stats.metric list
(** Live metric handles under ["dsm/"] paths, for a per-node
    {!Obs.Registry}: among them ["dsm/invalidations"],
    ["dsm/mode/deferred_invals"] (per-copy invalidations skipped by
    relaxed-mode write faults), ["dsm/mode/release_flush_bursts"]
    (release flushes that sent at least one [Inval_batch] fan-out)
    and ["dsm/mode/merges_applied"] (commutative page merges combined
    into the store); then the disk's and the participant's
    ({!Store.Disk.metrics}, {!Participant.metrics}). *)
