(** Write-ahead log for two-phase commit on data servers.

    Participants log [Prepared] with the byte spans the transaction
    wrote (and, under group commit, the before-images needed to undo
    a crash-window apply) before voting yes; [Committed]/[Aborted] seal
    the outcome; [Checkpoint] records carry the in-doubt transaction
    table so the log before them can be truncated.

    {2 Group commit}

    Created with [~group_commit], the log keeps an in-memory buffer:
    {!enqueue} puts a record in the buffer and returns its LSN;
    a log daemon forces everything pending in one sequential
    {!Disk.append} when the oldest buffered record has waited
    [window], or immediately once [max_batch] records are buffered.
    One disk positioning delay is amortized over the whole batch, and
    back-to-back flushes keep the head parked at the log tail.
    {!wait_durable} blocks until a given LSN has been forced.

    The buffer is volatile: records past the last completed flush are
    lost in a crash.  Flushes publish in LSN order, so the loss is
    always a clean suffix of the log — {!recover} discards it and
    undoes any page image it finds tagged past the durable horizon.

    Without [~group_commit], {!append} forces each record with its
    own synchronous {!Disk.write}, the historical cost model, and
    every record is durable the moment it is logged. *)

type write = Ra.Sysname.t * int * Segment_store.spans
(** (segment, page, spans): the bytes a transaction wrote to the
    page, laid over the stored image at commit and at redo
    ({!Segment_store.apply_spans}). *)

val writes_bytes : write list -> int
(** Log and wire size of a span list: 24 bytes per page plus 8 per
    span, plus the span bytes. *)

type undo = Ra.Sysname.t * int * bytes option
(** (segment, page, before-image); [None] = the page had never been
    written (undo clears it back to zeroed). *)

type prep = {
  txn : int * int;  (** (coordinator node, sequence) *)
  writes : write list;
  undo : undo list;
}

type record =
  | Prepared of prep
  | Committed of (int * int)
  | Aborted of (int * int)
  | Checkpoint of prep list
      (** fuzzy checkpoint: the prepared-undecided transactions at the
          instant the record was cut (no quiescing — commits keep
          flowing around it) *)

type group_commit = { window : Sim.Time.span; max_batch : int }

val trim_image : bytes -> bytes
(** Log encoding for before-images: drop the page's trailing zeros
    (data pages are sparse, so this is what the undo side of a
    prepare actually costs on disk).  {!recover} pads restored images
    back out to a full page. *)

type t

val create :
  ?group_commit:group_commit ->
  ?spawn:(string -> (unit -> unit) -> unit) ->
  Disk.t ->
  t
(** [spawn] is how the log daemon's flusher processes are started; a
    data server passes [Ra.Node.spawn] so they die with the machine,
    and starts none while it is down.
    With [~group_commit] the WAL must be created in simulation
    context (it captures the engine for window timers). *)

val group_commit : t -> bool

val append : t -> record -> unit
(** Durably append: returns once the record is on disk.  Without a
    daemon this is a synchronous {!Disk.write} charged to the caller;
    with one it is {!enqueue} + {!wait_durable} — the caller rides
    the next group flush. *)

val enqueue : t -> record -> int
(** Put a record in the log buffer and return its LSN without waiting
    for durability (commit pipelining: locks can be released at
    commit-record-in-buffer).  Without a daemon the record is durable
    immediately and no disk time is charged. *)

val wait_durable : t -> int -> unit
(** Block until the given LSN has been forced. *)

val flushed_lsn : t -> int
(** Highest LSN the disk has seen (0 initially). *)

val records : t -> record list
(** Non-truncated log contents in append order (tests, recovery). *)

val checkpoint : t -> active:prep list -> int
(** Cut a fuzzy checkpoint carrying the in-doubt table, wait for it
    to become durable, then truncate every record before it (the
    checkpoint's LSN is the new low-water mark).  Returns that LSN. *)

val recover :
  t -> Segment_store.t -> applied:(int * int) list ref -> prep list
(** ARIES-style replay into the store; it logs nothing and decides
    nothing.  First the volatile suffix (records past the last flush)
    is discarded.  Analysis collects outcomes and the freshest prepare
    per transaction, seeding from [Checkpoint] records when the
    original [Prepared] was truncated.  A prepare with neither a
    [Committed] nor an [Aborted] record is undecided.  Undo restores
    every page tagged past the durable horizon from its writer's
    before-image: the writer lost its commit record in the crash, so
    it is undecided again.  Committed prepares are then redone in
    commit-record order under the page-LSN guard, each laying its
    spans over the stored image, so recovering twice applies each
    write once.  [applied] reports every txn that had at least one
    write replayed; the return value is every undecided prepare, in
    log order, for the caller to re-install and settle. *)

val truncate : t -> unit
(** Discard the whole log unconditionally (tests). *)

val metrics : t -> Sim.Stats.metric list
(** [wal/records], [wal/flushes], [wal/flush_batch] (records per
    group flush), [wal/checkpoints] and [wal/truncated]. *)
