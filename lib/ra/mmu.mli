(** Per-node memory management.

    The MMU tracks which segment pages are resident on this node and
    in what mode, services page faults through the partition that
    owns each segment, and charges the calibrated fault costs: a
    fixed trap overhead plus either a data-copy or a zero-fill cost
    (the paper's 0.629 ms vs 1.5 ms for an 8K page).

    All data access by simulated programs goes through {!read} and
    {!write}, which walk the virtual space, fault pages in as needed
    and move real bytes, so coherence bugs surface as wrong data in
    tests.

    Page images follow one ownership rule (DESIGN.md, "Page-image
    ownership"): a read fault on a full page keeps the fetched image
    as the frame's data and never writes to it; a write fault, or a
    short image, copies it once into a private frame. *)

type t

exception Segv of int
(** Access to an unmapped address. *)

exception Write_protect of int
(** Write through a read-only mapping. *)

val create : ?max_frames:int -> cpu:Cpu.t -> unit -> t
(** The partition resolver must be set before the first fault.
    [max_frames] bounds physical memory: when the node holds that
    many page frames, faulting another page evicts the least recently
    used frame, writing its {!dirty_spans} back through its partition
    if dirty.  A dirty frame leaves only once that writeback returns
    and if nothing touched it meanwhile; if the writeback raises, the
    fault re-raises and the frame stays resident and dirty.  The
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

val dirty_pages : t -> Sysname.t -> (int * bytes) list
(** Dirty resident pages of a segment, sorted by page index.  Each
    image is a copy: the frames stay writable. *)

val dirty_spans : t -> Sysname.t -> (int * (int * bytes) list) list
(** What {!dirty_pages} would return, as the bytes written since each
    frame was last clean: per page, sorted by page index, its
    [(offset, bytes)] spans, sorted by offset, disjoint and never
    adjacent (overlapping and touching writes coalesce).  Laying the
    spans over the image the frame was fetched as reproduces the
    frame.  When the spans would cost at least a page to ship (8
    bytes of header per span plus its bytes), the page comes back as
    one whole-page span.  The bytes are copies. *)

val invalidate : t -> Sysname.t -> int -> bytes option
(** Drop the frame, returning its data if it was dirty (the caller
    forwards it to the requesting node or discards it to abort).  The
    data is the dropped frame's own image, not a copy; nothing writes
    to it again. *)

val downgrade : t -> Sysname.t -> int -> bytes option
(** Demote a write frame to read mode, returning the data if dirty.
    The data is the frame's own image, not a copy: a read-mode frame
    never writes to it again, so frame and caller share it. *)

val mark_clean : t -> Sysname.t -> int -> unit
(** Make the frame clean, forgetting its spans, after a successful
    writeback/commit. *)

val is_dirty : t -> Sysname.t -> int -> bool
(** Whether the page is resident with unwritten-back writes. *)

val page_base : t -> Sysname.t -> int -> bytes option
(** The frame's twin (the page as fetched), if the segment's
    consistency mode keeps one.  Not a copy: twins are replaced,
    never written, so the caller must not write to it either. *)

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

val metrics : t -> Sim.Stats.metric list
(** [mmu/faults] (page faults serviced through a partition),
    [mmu/upgrades] (those that upgraded a resident read frame to
    write) and [mmu/evictions] (frames evicted to make room, see
    [max_frames]). *)

val resident_frames : t -> int
(** Frames currently held. *)
