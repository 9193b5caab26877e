(** The participant side of two-phase commit on a data server.

    It owns everything a prepared transaction is: the table of
    prepared entries, each one's presumed-abort timer, the outcome
    oracle, the [dsm/commits] and [dsm/aborts] counters, and the
    write-ahead log — it writes every [Prepared], [Committed],
    [Aborted] and [Checkpoint] record and runs the log's recovery.
    The data server ({!Dsm_server}) builds one and dispatches the
    [Prepare], [Commit] and [Abort] messages to it; page service,
    coherence and the lock service stay there. *)

type t

type verdict = [ `Committed | `Aborted | `Pending | `Unknown ]
(** What the outcome oracle knows of a transaction: decided commit,
    decided abort, still running at a live coordinator, or nothing
    (the coordinator crashed or never saw it). *)

val create :
  Ra.Node.t ->
  Store.Segment_store.t ->
  Store.Disk.t ->
  group_commit_window:Sim.Time.span option ->
  checkpoint_every:Sim.Time.span option ->
  stores_all:(Protocol.span_set -> bool) ->
  apply_spans:(lsn:int -> Protocol.span_set -> Protocol.write_set) ->
  locks:(unit -> Lock_table.t) ->
  publish:(except:Net.Address.t -> Protocol.write_set -> unit) ->
  t
(** The participant of a data server whose pages live in the store
    and whose log lives on the disk.  The server hands it four
    functions: [stores_all] tells whether the server holds every
    segment a write set names; [apply_spans] lays a committed
    transaction's spans into the store, tagged with its commit
    record's LSN, and returns the full page images; [locks] is the
    server's current lock table; [publish] makes committed images
    visible elsewhere (the release-mode invalidation burst and the
    backups), sparing the writer's node [except].

    [group_commit_window] turns on the WAL's group-commit daemon:
    prepare votes and commit acks ride batched log flushes (at most
    [window] of added latency, or sooner once 64 records are
    buffered), the commit path pipelines — locks release at
    commit-record-in-buffer, the ack waits for the flush — and
    prepares capture before-images so recovery can undo a
    crash-window apply.  Without it, every log record is forced with
    its own synchronous disk write.

    [checkpoint_every] arms a fuzzy checkpoint that interval after
    the first prepare of a busy period: the in-doubt transaction
    table is logged without quiescing and the WAL is truncated up to
    the checkpoint once it is durable.

    A prepared participant that hears no decision for 60 s asks the
    outcome oracle ({!set_oracle}): commit, abort, or wait another
    60 s if the transaction is still pending. *)

val prepare : t -> Protocol.txn_id -> Protocol.span_set -> bool
(** The vote.  [false], refusing the batch whole, if any write names
    a segment the server does not hold; otherwise the prepare record
    is made durable (under group commit it rides the next group
    flush), the entry is installed with its presumed-abort timer
    armed, and the vote is [true]. *)

val decide : t -> Protocol.txn_id -> commit:bool -> unit
(** A [Commit] or [Abort] message.  A prepared entry is committed
    (logged, applied, its locks released, then published once
    durable) or aborted (logged, its locks released).  A transaction
    that holds only locks here has no entry: the decision just
    releases them. *)

val set_oracle : t -> (Protocol.txn_id -> verdict) -> unit
(** How a prepared participant learns the fate of a transaction whose
    decision never arrived: ask the coordinator (the atomicity manager
    installs this).  It is consulted in one place, when the
    presumed-abort timer fires or recovery finds the transaction in
    doubt.  [`Committed] commits; [`Aborted] and [`Unknown] abort;
    [`Pending] (the coordinator is alive but has not decided) keeps
    the promise to commit and asks again after another timeout.
    Without an oracle every such transaction is presumed aborted. *)

val recover : t -> unit
(** Run after {!Ra.Node.restart}, once the server's lock table is
    fresh: cancel the pre-crash timers, forget the volatile entries
    and replay the write-ahead log into the store.  Each transaction
    left in doubt is re-installed as prepared, with its write locks
    held again and its presumed-abort timer armed, and a process is
    spawned that settles it through the oracle at once.  Nothing here
    blocks, so it may be called from an engine callback. *)

val in_doubt : t -> Protocol.txn_id list
(** Transactions still prepared here, sorted: none once every
    prepared entry has been committed or aborted. *)

val wal : t -> Store.Wal.t

val metrics : t -> Sim.Stats.metric list
(** ["dsm/commits"] and ["dsm/aborts"] (prepared entries settled
    each way), then the log's ({!Store.Wal.metrics}). *)
