(** Automatic re-replication of under-replicated segments.

    Subscribes to the membership monitor.  When a view condemns a
    data server, the replicator immediately fails {!Placement} over —
    every segment whose primary died is repointed at its first
    surviving filled backup, and segments with no surviving filled
    copy become lost — then runs a background heal pass that copies
    each under-replicated segment ([Read_pages] batches from a
    surviving replica, landed as zero-guarded [Backfill]s) onto
    healthy data servers until the cluster's replication factor is
    restored, and mirrors the object directory entries alongside.  A
    target is enlisted as a filling backup before its backfill and
    marked filled after it.  When a dead server's heartbeats resume
    (its stable store survived the crash), its lost segments are
    re-adopted and topped back up.

    Invariant: a write acknowledged to a client before the crash is
    on every current replica once {!quiesce} returns — the primary
    applied it and forwarded it to the backups, and heal passes copy
    whole segments from the surviving primary. *)

type t

val read_pages :
  Ra.Node.t ->
  src:Net.Address.t ->
  Ra.Sysname.t ->
  ((int * bytes) list -> bool) ->
  bool
(** [read_pages node ~src seg f] reads every page of [seg] that
    [src]'s store holds, in small [Read_pages] batches sent from
    [node], and hands each non-empty batch of [(page, image)] pairs to
    [f]; a page it never hands over was never written.  The read has
    no coherence side effects: it sees committed (stored) state, adds
    no one to a copyset and recalls no frame.  Returns false as soon
    as [src] stops answering or [f] returns false.  The images are
    shared with [src]'s store: read-only. *)

val install : Cluster.t -> Membership.Monitor.t -> t
(** Wire the replicator into a cluster whose monitor is running.
    Heal passes run on the monitor's host node. *)

val quiesce : t -> unit
(** Block until no heal pass is in flight. *)

val last_heal : t -> Sim.Time.t option
(** Completion instant of the most recent heal pass. *)

val metrics : t -> Sim.Stats.metric list
(** [repl/pages_copied]: pages shipped by heal passes over the
    replicator's lifetime. *)
