(** DSM wire protocol.

    All coherence, locking, directory and commit traffic between
    compute servers (DSM clients) and data servers (DSM servers) uses
    these RaTP message bodies.  Sizes model an 8K page plus headers
    where page data is carried. *)

(** Transactions are named by their coordinating node and a per-node
    sequence number. *)
type txn_id = { tnode : int; tseq : int }

type lock_kind = R | W

type write_set = (Ra.Sysname.t * int * bytes) list
(** (segment, page index, page image) triples. *)

type Ratp.Packet.body +=
  | Get_page of { seg : Ra.Sysname.t; page : int; mode : Ra.Partition.mode }
      (** demand fault: exactly one page comes back *)
  | Got_page of Ra.Partition.fetch_data
  | Page_error
  | Put_batch of write_set
      (** one-copy writeback (a flush or an evicted dirty frame); a
          missing segment rejects the whole batch with
          [Segment_error] before any page is applied *)
  | Overwrite of write_set
      (** server-side overwrite with invalidation of every cached
          copy (replica propagation) *)
  | Batch_ok
  | Invalidate of { seg : Ra.Sysname.t; page : int }
  | Invalidated of { dirty : bytes option }
  | Downgrade of { seg : Ra.Sysname.t; page : int }
  | Downgraded of { dirty : bytes option }
  | Create_segment of {
      seg : Ra.Sysname.t;
      size : int;
      mode : Ra.Partition.consistency;
    }
  | Delete_segment of Ra.Sysname.t
  | Segment_ok
  | Segment_error
  | Lock_segment of { seg : Ra.Sysname.t; kind : lock_kind; txn : txn_id }
  | Lock_granted
  | Lock_cancelled
  | Get_descriptor of Ra.Sysname.t
  | Descriptor of Store.Directory.descriptor option
  | Register_object of {
      obj : Ra.Sysname.t;
      descriptor : Store.Directory.descriptor;
    }
  | Unregister_object of Ra.Sysname.t
  | Registered
  | Prepare of { txn : txn_id; writes : write_set }
  | Vote of bool
  | Commit of { txn : txn_id }
  | Abort of { txn : txn_id }
  | Txn_done
  | List_objects
  | Objects of Ra.Sysname.t list
  | Read_pages of { seg : Ra.Sysname.t; from : int; count : int }
      (** bulk replica read for re-replication: up to [count] non-zero
          pages starting at [from]; no owner/copyset side effects *)
  | Pages of { size : int; pages : (int * bytes) list }
  | Mirror_writes of write_set
      (** committed writes forwarded by a segment's primary to its
          backups; applied to the store, never re-forwarded *)
  | Backfill of write_set
      (** re-replication catch-up copy: a page is applied only if the
          receiving store still holds it zeroed, so it can never
          clobber a fresher mirrored write *)
  | Inval_batch of (Ra.Sysname.t * int) list
      (** release-mode flush: one batched invalidation RPC per copyset
          member, sent when a lock scope's dirty pages land at the
          home; the copy is dropped without returning dirty data *)
  | Put_diffs of (Ra.Sysname.t * int * (int * bytes) list) list
      (** release-mode writeback: per page, the (offset, bytes) spans
          changed against the twin, applied sub-page at the home *)
  | Merge_delta of (Ra.Sysname.t * int * int * bytes) list
      (** commutative flush: per page (segment, page, twin-stamp,
          delta) — word-wise deltas against the twin, combined at the
          home under the segment's merge operator.  The twin-stamp is
          the idempotency key: a flush re-sent after a client-visible
          timeout repeats the stamp, and the home applies only the
          difference against what it already recorded for it, so Add
          deltas are never applied twice *)
  | Merged of write_set
      (** post-merge home images returned to the flushing replica *)

val service : int
(** RaTP service id of DSM servers. *)

val client_service : int
(** RaTP service id of DSM clients (server-initiated invalidation and
    downgrade). *)

val request_bytes : Ratp.Packet.body -> int
(** Wire size of a message body. *)

val call :
  Ra.Node.t ->
  dst:Net.Address.t ->
  Ratp.Packet.body ->
  (Ratp.Packet.body, Ratp.Endpoint.error) result
(** One RPC from [node] to the DSM server service at [dst], the body
    sized by {!request_bytes}. *)

val call_client :
  Ra.Node.t ->
  dst:Net.Address.t ->
  Ratp.Packet.body ->
  (Ratp.Packet.body, Ratp.Endpoint.error) result
(** Like {!call}, to the DSM client service (server-initiated
    invalidation and downgrade). *)

val txn_compare : txn_id -> txn_id -> int
val pp_txn : Format.formatter -> txn_id -> unit
val pp_lock_kind : Format.formatter -> lock_kind -> unit
