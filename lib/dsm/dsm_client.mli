(** The DSM client: the partition compute servers page through.

    Page faults on a compute server become [Get_page] transactions to
    the data server that stores the segment; the client also answers
    the server-initiated invalidation and downgrade calls that keep
    every copy coherent.  Together with {!Dsm_server} this gives each
    node the illusion that every object logically resides locally —
    the paper's distributed shared memory.

    A fault is plain Li–Hudak demand paging: one [Get_page], one page
    back.  The fast path adds two mechanisms (DESIGN.md §11): batched
    writeback of dirty pages and a location cache that memoises
    segment-to-home resolution.

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
    them), and {!flush_segment} ships diffs or merge deltas instead
    of page images for relaxed modes. *)

val partition : t -> Ra.Partition.t

val node : t -> Ra.Node.t

val flush_segment : t -> Ra.Sysname.t -> unit
(** Write every dirty resident page of the segment back to its data
    server and mark the frames clean (used by s-threads that want
    their updates stored, and by examples).  One RPC per segment:
    a [Put_batch] of every dirty page for [One_copy] segments.  A
    segment the home no longer stores raises
    {!Ra.Partition.No_segment} and leaves the frames dirty. *)

val reset_location_cache : t -> unit
(** Drop every cached segment-to-home binding (placement may change
    across restarts).  Individual entries are already dropped
    whenever their home stops answering. *)

val evict_where : t -> (Ra.Sysname.t -> Net.Address.t -> bool) -> int
(** Drop exactly the cached locations the predicate condemns (segment,
    cached home) and return how many were evicted — used on a
    placement-ring remap to invalidate the moved arc and nothing
    else. *)

val apply_view : t -> Membership.Monitor.view -> unit
(** Evict cached locations that point at members the view declares
    [Dead], so the next fault re-resolves against a surviving replica
    instead of waiting out the RaTP retry ladder. *)

val remote_fetches : t -> int
(** [Get_page] RPCs issued: one per remote fault. *)

val put_rpcs : t -> int
(** Writeback RPCs issued: one [Put_batch] (or [Put_diffs]) per
    segment flush or evicted dirty frame. *)

val invalidations_received : t -> int
val downgrades_received : t -> int

val location_hits : t -> int
(** Faults whose home resolution was served from the location cache. *)

val location_misses : t -> int

val location_evictions : t -> int
(** Cached bindings dropped because the membership view condemned
    their home. *)

val merge_flushes : t -> int
(** [Merge_delta] RPCs sent for commutative segments. *)

val metrics : t -> (string * Obs.Registry.metric) list
(** Live metric handles under ["dsmc/"] paths, for a per-node
    {!Obs.Registry}. *)
