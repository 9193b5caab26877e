(** Stable page storage for segments on a data server.

    Contents survive node crashes (they model disk-backed Unix files
    kept hot in the buffer cache).  Pages that were never written
    read back as {!Ra.Partition.Zeroed}, which is what makes the
    zero-fill fault path observable end to end. *)

type t

val create : unit -> t

val create_segment : t -> Ra.Sysname.t -> size:int -> unit
(** Declare a segment of [size] bytes.  Raises [Invalid_argument] if
    it already exists. *)

val delete_segment : t -> Ra.Sysname.t -> unit

val exists : t -> Ra.Sysname.t -> bool

val size : t -> Ra.Sysname.t -> int
(** Raises {!Ra.Partition.No_segment} if absent. *)

val read_page : t -> Ra.Sysname.t -> int -> Ra.Partition.fetch_data
(** The stored image itself, not a copy: stored images are immutable
    and shared, so the caller must not write to it (copy first).
    Raises {!Ra.Partition.No_segment} if the segment is absent. *)

val write_page : ?lsn:int -> t -> Ra.Sysname.t -> int -> bytes -> unit
(** [write_page ?lsn t seg page data] installs a page image.  The
    store keeps [data] itself, not a copy, so the caller hands it
    over and must not write to it afterwards.  [lsn]
    tags the page with the commit record that produced it (the
    page-LSN recovery redo is guarded by); omitted, the existing tag
    is left in place — an unlogged write over a committed page must
    not look older than the commit it replaced, or recovery redo
    would clobber it. *)

type spans = (int * bytes) list
(** Byte runs [(offset in page, bytes)]: the redo format of a
    two-phase commit and the diff format of a release-mode
    writeback. *)

val apply_spans : ?lsn:int -> t -> Ra.Sysname.t -> int -> spans -> bytes
(** [apply_spans ?lsn t seg page spans] lays [spans] over a
    full-page copy of the stored image (zeros where it was never
    written), installs the result with {!write_page} and returns it.
    The stored image itself is shared and is never written.  Bytes of
    a span that fall outside the page are dropped.  Laying the same
    spans twice gives the same page, so redo may repeat it. *)

val clear_page : t -> Ra.Sysname.t -> int -> unit
(** Forget a page: it reads back as {!Ra.Partition.Zeroed} again.
    Recovery undo uses it when a crash-window write landed on a page
    that had never been written. *)

val page_lsn : t -> Ra.Sysname.t -> int -> int
(** The page's tag; 0 for pages never written by the commit path. *)

val local_partition : t -> Ra.Partition.t
(** A partition serving this store directly (same-machine access on a
    data server): no network, no disk — the calibrated fault costs in
    the MMU are the whole story, matching the paper's local fault
    measurements. *)
