(** The DSM server: the system object running on every data server.

    It is the fixed distributed manager (in the Li–Hudak sense) for
    the segments it stores: it tracks, per page, the current owner
    (a compute server holding a write copy) and the copyset (nodes
    holding read copies), and preserves one-copy semantics by
    downgrading or invalidating remote copies before granting
    conflicting access.  It also provides the synchronization support
    the paper assigns to data servers: segment-level locks for
    consistency-preserving threads, and the participant side of
    two-phase commit backed by a write-ahead log. *)

type t

val create :
  Ra.Node.t ->
  ?presume_abort_after:Sim.Time.span ->
  ?group_commit_window:Sim.Time.span ->
  ?checkpoint_every:Sim.Time.span ->
  unit ->
  t
(** Install the DSM service on a data-server node.  State in
    {!Store.Segment_store} and {!Store.Wal} survives crashes;
    ownership, locks and prepared-transaction tables are volatile.

    Write-fault invalidations — owner recall plus every copyset
    member — go out as one concurrent fan-out, so a write fault costs
    one round trip regardless of copyset size
    ({!Experiments.Write_fault_fanout}).

    [group_commit_window] turns on the WAL's group-commit daemon:
    prepare votes and commit acks ride batched log flushes (at most
    [window] of added latency, or sooner once 64 records are
    buffered), the commit path pipelines — locks release at
    commit-record-in-buffer, the ack waits for the flush — and
    prepares capture before-images so recovery can undo a
    crash-window apply.  Left unset (the default), every WAL record
    is forced with its own synchronous disk write, the historical
    behaviour.

    [checkpoint_every] arms a fuzzy checkpoint that interval after
    the first prepare of a busy period: the in-doubt transaction
    table is logged without quiescing and the WAL is truncated up to
    the checkpoint once it is durable. *)

val node : t -> Ra.Node.t
val store : t -> Store.Segment_store.t
val directory : t -> Store.Directory.t
val wal : t -> Store.Wal.t
val locks : t -> Lock_table.t

val set_outcome_oracle :
  t -> ((int * int) -> [ `Committed | `Aborted | `Pending | `Unknown ]) -> unit
(** How a recovering participant learns the fate of a transaction it
    prepared but never saw decided: ask the coordinator (the
    atomicity manager installs this).  [`Pending] — the coordinator
    is alive but has not decided — keeps the participant's promise to
    commit (the transaction stays prepared); [`Unknown] — coordinator
    crashed or forgot — means presumed abort. *)

val recover : t -> unit
(** Run after {!Ra.Node.restart}: clear volatile coherence and lock
    state and replay the write-ahead log into the segment store,
    resolving in-doubt transactions through the outcome oracle
    (presumed abort without one). *)

val apply_view : t -> Membership.Monitor.view -> unit
(** Fold a membership view into the suspect table: [Dead] members are
    skipped by coherence fan-outs, an [Alive] verdict clears the
    suspicion — even if the peer never sends this server a request —
    and [Suspect] leaves any local timeout evidence standing
    (probation).  This replaces the old behaviour where one RaTP
    timeout marked a peer suspect forever. *)

val suspected : t -> Net.Address.t list
(** Peers currently skipped by coherence fan-outs; sorted (tests). *)

val set_consistency : t -> Ra.Sysname.t -> Ra.Partition.consistency -> unit
(** Override a segment's consistency mode (normally set by the
    [Create_segment] RPC).  [Release] defers write-fault invalidation
    to the flush that lands the scope's dirty pages, batching one
    [Inval_batch] RPC per copyset member in a single fan-out;
    [Commutative] segments never invalidate and combine flushed
    deltas under their merge operator. *)

val consistency_of : t -> Ra.Sysname.t -> Ra.Partition.consistency
(** A segment's consistency mode ([One_copy] when never set). *)

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

val pages_served : t -> int

val invalidations_sent : t -> int
val downgrades_sent : t -> int
val commits : t -> int
val aborts : t -> int

val mirrored_writes : t -> int
(** Page images forwarded to backups over this server's lifetime. *)

val deferred_invals : t -> int
(** Per-copy invalidations skipped by relaxed-mode write faults. *)

val release_flush_bursts : t -> int
(** Release flushes that sent at least one [Inval_batch] fan-out. *)

val merges_applied : t -> int
(** Commutative page merges combined into the store. *)

val metrics : t -> (string * Obs.Registry.metric) list
(** Live metric handles under ["dsm/"] paths, for a per-node
    {!Obs.Registry}. *)
