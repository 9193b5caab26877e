(** Partitions: Ra's interface to non-volatile segment storage.

    Ra only defines the interface; implementations are system
    objects.  The [store] library provides a local-disk partition for
    data servers; the [dsm] library provides the DSM client partition
    that compute servers use to demand-page segments over the network
    with coherence. *)

type mode = Read | Write

type fetch_data =
  | Zeroed  (** the page has never been written; zero-fill a frame *)
  | Data of bytes
      (** page contents; possibly shared with the store or the wire,
          so read-only to the receiver *)

exception No_segment of Sysname.t
(** Raised by partition operations when the segment does not exist
    (deleted or never created). *)

type t = {
  fetch : seg:Sysname.t -> page:int -> mode:mode -> fetch_data;
      (** Obtain a page in the given mode; blocks (disk or network).
          Fetching in [Write] mode acquires ownership under the
          coherence protocol.  The returned image may be shared (a
          stored image, a message body): the MMU may keep it as a
          read-mode frame's data but never writes to it. *)
  writeback : seg:Sysname.t -> page:int -> (int * bytes) list -> unit;
      (** Push a dirty page back to stable storage as the
          [(offset, bytes)] spans written since it was last clean
          ({!Mmu.dirty_spans}), laid over the stored image.  The
          span bytes are the caller's copies.  On an exception the
          page is not stored and the caller keeps it dirty. *)
}

(** {1 Consistency modes}

    Per-segment coherence policy, threaded from segment creation down
    through the DSM client/server and the MMU.  [One_copy] is the
    paper's Li–Hudak write-invalidate protocol and the default.
    [Release] defers copyset invalidation to the flush that ends a
    lock scope (writes upgrade locally; the home batches one
    invalidation burst when the dirty pages land).  [Commutative]
    segments declare a word-wise merge operator; writes apply locally
    with no coherence traffic and replicas exchange deltas on flush
    boundaries. *)

type merge = Add | Max

type consistency = One_copy | Release | Commutative of merge

val merge_delta : merge -> base:bytes -> current:bytes -> bytes
(** [merge_delta op ~base ~current] encodes a replica's local writes
    as a delta page: word-wise [current - base] for [Add], the
    absolute [current] words for [Max].  Operates on the common
    prefix of whole 64-bit little-endian words. *)

val apply_merge : merge -> into:bytes -> bytes -> unit
(** [apply_merge op ~into delta] combines a delta page into a home
    copy in place: word-wise addition for [Add], word-wise maximum
    for [Max]. *)
