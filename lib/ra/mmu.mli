(** Per-node memory management.

    The MMU tracks which segment pages are resident on this node and
    in what mode, services page faults through the partition that
    owns each segment, and charges the calibrated fault costs: a
    fixed trap overhead plus either a data-copy or a zero-fill cost
    (the paper's 0.629 ms vs 1.5 ms for an 8K page).

    All data access by simulated programs goes through {!read} and
    {!write}, which walk the virtual space, fault pages in as needed
    and move real bytes, so coherence bugs surface as wrong data in
    tests. *)

type t

exception Segv of int
(** Access to an unmapped address. *)

exception Write_protect of int
(** Write through a read-only mapping. *)

val create : ?max_frames:int -> params:Params.t -> cpu:Cpu.t -> unit -> t
(** The partition resolver must be set before the first fault.
    [max_frames] bounds physical memory: when the node holds that
    many page frames, faulting another page evicts the least recently
    used frame (writing it back through its partition if dirty).  The
    default is effectively unbounded. *)

val set_resolver : t -> (Sysname.t -> Partition.t) -> unit
(** [resolver seg] is the partition that stores [seg]; it should
    raise {!Partition.No_segment} for unknown segments. *)

val set_consistency : t -> (Sysname.t -> Partition.consistency) -> unit
(** [consistency seg] is the coherence mode of [seg] (default: every
    segment is {!Partition.One_copy}).  Frames of [Release] and
    [Commutative] segments keep a twin — a snapshot of the page as
    fetched — so flushes can diff or delta against it. *)

val set_access_hook : t -> (Sysname.t -> int -> Partition.mode -> unit) option -> unit
(** Hook called before every page access with (segment, page, mode);
    used by the atomicity layer to acquire segment locks and record
    read/write sets.  The hook runs in the accessing process. *)

val read : t -> Virtual_space.t -> addr:int -> len:int -> bytes
(** Read [len] bytes at virtual address [addr], faulting pages in as
    needed. *)

val write : t -> Virtual_space.t -> addr:int -> bytes -> unit
(** Write bytes at [addr]; pages are faulted in write mode. *)

val resident : t -> Sysname.t -> int -> Partition.mode option
(** Residency and mode of a page frame on this node. *)

val page_data : t -> Sysname.t -> int -> bytes option
(** Copy of the resident frame's contents (tests, commit processing). *)

val dirty_pages : t -> Sysname.t -> (int * bytes) list
(** Dirty resident pages of a segment, sorted by page index. *)

val invalidate : t -> Sysname.t -> int -> bytes option
(** Drop the frame, returning its data if it was dirty (the caller
    forwards it to the requesting node or discards it to abort). *)

val downgrade : t -> Sysname.t -> int -> bytes option
(** Demote a write frame to read mode, returning the data if dirty. *)

val mark_clean : t -> Sysname.t -> int -> unit
(** Clear the dirty bit after a successful writeback/commit. *)

val is_dirty : t -> Sysname.t -> int -> bool
(** Whether the page is resident with unwritten-back writes. *)

val page_base : t -> Sysname.t -> int -> bytes option
(** Copy of the frame's twin (the page as fetched), if the segment's
    consistency mode keeps one. *)

val twin_stamp : t -> Sysname.t -> int -> int
(** Node-unique id of the frame's current twin snapshot (0 when the
    frame is gone or keeps no twin).  Stamps are never reused, so a
    commutative flush can use them as the idempotency key for its
    deltas: the stamp repeats exactly when a flush is re-sent against
    an unchanged twin after a client-visible timeout. *)

val merge_refresh : t -> Sysname.t -> int -> bytes -> unit
(** Overwrite a resident frame with the post-flush home image, mark
    it clean and make the image the new twin.  No-op if the frame is
    gone (invalidated meanwhile). *)

val rebase : t -> Sysname.t -> int -> unit
(** Re-snapshot a resident frame's twin from its current contents
    (after a flush pushed those contents home). *)

val drop_segment : t -> Sysname.t -> unit
(** Invalidate every frame of a segment (abort path / deletion). *)

val clear : t -> unit
(** Drop all frames (machine crash: volatile contents are lost). *)

val faults : t -> int
val upgrades : t -> int

val evictions : t -> int
(** Frames evicted to make room (see [max_frames]). *)

val resident_frames : t -> int
(** Frames currently held. *)
