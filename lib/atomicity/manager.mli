(** Consistency-preserving threads (§5.2.1 of the paper).

    Installing the manager hooks every compute server's MMU and the
    cluster's entry wrapper.  Entry points labelled [S] run as plain
    s-threads: no locking, no recovery.  An entry labelled [Gcp]
    (global consistency) or [Lcp] (local consistency) that is not
    already inside a transaction begins one:

    - every segment the thread {e reads} is read-locked and every
      segment it {e updates} is write-locked, automatically, at
      access time — [Gcp] locks live at the data servers (visible
      cluster-wide), [Lcp] locks are per-node;
    - once a [Gcp] transaction has upgraded a segment from read to
      write, later [Gcp] transactions begun on the same compute server
      write-lock it on first touch, so a read-modify-write pays one
      lock round trip instead of two; committing without writing the
      segment drops that intent;
    - updates stay in local page frames until commit;
    - on return, [Gcp] transactions run two-phase commit across the
      involved data servers (write-ahead logged, presumed abort)
      while [Lcp] transactions push their updates in one batch;
    - on failure or deadlock timeout the transaction aborts: dirty
      frames are dropped (the store still has the pre-transaction
      state), locks are released, and the body is retried a bounded
      number of times.

    Nested and remote invocations join the ambient transaction (one
    flat transaction per top-level cp entry).  Mixing s-thread access
    with cp-thread data remains possible and dangerous, exactly as
    the paper warns. *)

exception Aborted of string
(** The transaction could not commit (deadlock, server failure) and
    retries were exhausted; raised to the invoker. *)

type t

val install :
  Clouds.Object_manager.t ->
  ?deadlock_timeout:Sim.Time.span ->
  ?max_retries:int ->
  unit ->
  t
(** Hook the cluster.  [deadlock_timeout] (default 5 s simulated)
    bounds lock waits before an abort; [max_retries] (default 3)
    bounds automatic re-execution of an aborted entry body.
    Each two-phase-commit phase — prepare, commit, abort, and
    local-consistency batch pushes — goes to all participant data
    servers concurrently, so a phase costs one round trip regardless
    of transaction span.  Both carry only the byte spans the
    transaction wrote ({!Ra.Mmu.dirty_spans}): a Local commit as one
    [Put_spans] per home server, a Global commit as one [Prepare] per
    home. *)

val object_manager : t -> Clouds.Object_manager.t
(** The object manager this instance hooks. *)

val abort_thread : t -> thread_id:int -> unit
(** Failure-detector entry point: abort the active transaction begun
    by this thread (if any), releasing its locks everywhere.  Used
    when a thread is killed externally (e.g. PET losers, crashed
    nodes). *)

val metrics : t -> Sim.Stats.metric list
(** Live metric handles under ["atomicity/"] paths, for an
    {!Obs.Registry}: ["atomicity/commits"], ["atomicity/aborts"],
    ["atomicity/retries"], ["atomicity/lock_rpcs"] (lock requests sent
    to data servers by global transactions),
    ["atomicity/lock_upgrades"] (those of them that upgrade a held R
    to W) and ["atomicity/commit_ms"].  ["atomicity/commit_ms"] is the commit-phase
    latency (ms) of successful transactions, measured from the start
    of [commit] (prepare fan-out) to the client ack — under group
    commit the ack rides a batched log flush, so this is where the
    pipeline's latency/throughput trade shows up. *)
