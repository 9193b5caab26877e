(** Distributed sorting over a single persistent object (§5.1).

    The data lives in one Clouds object; multiple threads, executing
    on different compute servers, sort disjoint ranges in parallel
    and then merge.  The parts of the array in use at a node migrate
    there automatically through DSM — the paper's demonstration that
    a centralized algorithm can be run as a distributed computation.

    Element [i] is an 8-byte integer at byte offset [64 + 8*i] of the
    object's persistent data segment. *)

val create :
  Clouds.Object_manager.t ->
  ?consistency:Ra.Partition.consistency ->
  capacity:int ->
  unit ->
  Ra.Sysname.t
(** Create a sorter instance (registering the class as needed).
    [consistency] sets the coherence mode of the instance's data and
    heap segments (default: the cluster's default, normally
    [One_copy]). *)

val fill :
  Clouds.Object_manager.t -> obj:Ra.Sysname.t -> n:int -> seed:int -> unit
(** Populate the array with [n] pseudo-random elements. *)

val checksum : Clouds.Object_manager.t -> obj:Ra.Sysname.t -> int
(** Order-independent checksum, for validating that sorting permutes
    rather than corrupts. *)

val is_sorted : Clouds.Object_manager.t -> obj:Ra.Sysname.t -> bool

type run = {
  workers : int;
  elapsed_ms : float;
  sort_ms : float;  (** parallel phase *)
  merge_ms : float;  (** merge phase *)
  remote_page_moves : int;  (** DSM transfers observed during the run *)
}

val distributed_sort :
  Clouds.Object_manager.t -> obj:Ra.Sysname.t -> workers:int -> run
(** Sort with [workers] threads spread round robin over the compute
    servers, then merge pairwise (merge rounds also run as threads).
    Call from a process. *)
