(** The DSM client: the partition compute servers page through.

    Page faults on a compute server become [Get_page] transactions to
    the data server that stores the segment; the client also answers
    the server-initiated invalidation and downgrade calls that keep
    every copy coherent.  Together with {!Dsm_server} this gives each
    node the illusion that every object logically resides locally —
    the paper's distributed shared memory.

    A fault is plain Li–Hudak demand paging: one [Get_page], one page
    back.  Dirty bytes go home in one format, [Put_spans]: per page,
    the byte spans written, laid over the home's stored image.  A
    flush sends one for the whole segment and an evicted frame one of
    its own (DESIGN.md §11).  Each fault and writeback asks [locate]
    for the segment's home, so a segment the cluster repoints is
    found at its new home on the next fault.

    Copies dropped locally (transaction abort, object deletion: see
    {!Ra.Mmu.drop_segment}) are not reported to the home, so a
    copyset may name a client that no longer holds the page.  The
    next write fault then sends it one redundant [Invalidate], which
    it answers clean. *)

exception Unavailable of Ra.Sysname.t
(** The segment's data server did not answer (crashed or
    partitioned). *)

type t

val create :
  Ra.Node.t ->
  locate:(Ra.Sysname.t -> Net.Address.t) ->
  ?consistency:(Ra.Sysname.t -> Ra.Partition.consistency) ->
  unit ->
  t
(** Install the DSM client on a node and point the node's MMU at it.
    [locate] maps a segment to its data server; every fault and
    writeback goes there over the network, because compute and data
    servers are disjoint machines.

    [consistency] maps a segment to its coherence mode (default: all
    [One_copy]); it is also installed as the MMU's consistency
    resolver so relaxed-mode frames keep twins.  Write faults on
    [Commutative] segments go out as reads (the home never arbitrates
    them), and {!flush_segment} ships twin diffs or merge deltas
    instead of the written spans for relaxed modes. *)

val partition : t -> Ra.Partition.t

val flush_segment : t -> Ra.Sysname.t -> unit
(** Write every dirty resident page of the segment back to its data
    server and mark the frames clean (used by s-threads that want
    their updates stored, and by examples).  One RPC per segment: a
    [Put_spans] of the bytes each dirty page wrote
    ({!Ra.Mmu.dirty_spans}) for [One_copy] segments, of each page's
    diff against its twin for [Release].  A segment the home no
    longer stores raises {!Ra.Partition.No_segment} and leaves the
    frames dirty. *)

val metrics : t -> Sim.Stats.metric list
(** Live metric handles under ["dsmc/"] paths, for a per-node
    {!Obs.Registry}: among them ["dsmc/puts"] (writeback RPCs issued:
    one [Put_spans] per one-copy or release segment flush or evicted
    dirty frame), ["dsmc/invals"] (invalidations received) and
    ["dsm/mode/merge_rpcs"] ([Merge_delta] RPCs sent for commutative
    segments). *)
