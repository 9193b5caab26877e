(** Placement: where every segment and object lives.

    The one owner of the cluster's configuration knowledge: each
    segment's replica list (or, once its last copy died, the primary
    it died with) and consistency mode, each object's home data
    server, and the consistent-hash ring fresh objects and name shards
    are placed on.  Every write goes through this interface.

    A backup enlisted but not yet backfilled is {e filling}: the
    primary mirrors committed writes to it, but {!failover} never
    promotes it, because its pages are still partly zero. *)

type t

val create : Net.Address.t list -> t
(** No segments or objects; the ring spans the given data servers. *)

(** {1 Segments} *)

val locate : t -> Ra.Sysname.t -> Net.Address.t
(** The primary clients resolve to; for a lost segment, the primary it
    died with.  Raises {!Ra.Partition.No_segment} for unknown ones. *)

val replicas : t -> Ra.Sysname.t -> Net.Address.t list
(** Every copy, primary first and filling backups included; [[]] for
    lost and unknown segments. *)

val live_segments : t -> Ra.Sysname.t list
(** Segments that are not lost, in sysname order. *)

val lost_segments : t -> int

val place : t -> Ra.Sysname.t -> Net.Address.t list -> unit
(** Record a segment's replica list, every copy filled; the head is
    the primary.  Raises [Invalid_argument] on an empty list. *)

val enlist : t -> Ra.Sysname.t -> Net.Address.t -> fill:(unit -> bool) -> bool
(** [enlist t seg dst ~fill] appends [dst] to a live segment as a
    filling backup and runs [fill] (the backfill).  On [true] the
    backup is filled; on [false] it is dropped again.  Returns the
    verdict, or [false] without running [fill] when the segment is
    lost or unknown. *)

val failover : t -> dead:Net.Address.t list -> unit
(** Each segment with a dead copy keeps its survivors, a filled one
    at the head, or, with no filled survivor, becomes lost to its
    current primary.  Objects homed on a dead server lose their
    home. *)

val readopt : t -> Net.Address.t -> unit
(** The server rejoined with its stable store intact: every segment
    lost to it is live again with it as the sole replica. *)

val remove : t -> Ra.Sysname.t -> unit
(** Forget a segment and its mode (object deletion). *)

val mode : t -> Ra.Sysname.t -> Ra.Partition.consistency
(** [One_copy] when never set. *)

val set_mode : t -> Ra.Sysname.t -> Ra.Partition.consistency -> unit
(** The one write of a segment's mode: every DSM client, every DSM
    server and every MMU of the cluster reads it through {!mode}.
    Change modes only while the segment has no cached remote copies
    (normally set once at creation): copies fetched under the old
    mode are not converted. *)

(** {1 Objects} *)

val home : t -> Ra.Sysname.t -> Net.Address.t option
(** The data server holding the object's descriptor. *)

val set_home : t -> Ra.Sysname.t -> Net.Address.t -> unit
val forget_home : t -> Ra.Sysname.t -> unit

(** {1 Ring} *)

val ring : t -> Ring.t

val prev_ring : t -> Ring.t option
(** The ring before the last member-set change: lookups fall back to
    it for bindings made before a remap. *)

val remap : t -> Net.Address.t list -> unit
(** Rebuild the ring over these members, keeping the old one as
    {!prev_ring}, when the member set changed (an empty list keeps
    the current ring). *)
