type txn_id = int * int

type lock_kind = R | W

type write_set = (Ra.Sysname.t * int * bytes) list
type span_set = Store.Wal.write list

type Ratp.Packet.body +=
  | Get_page of { seg : Ra.Sysname.t; page : int; mode : Ra.Partition.mode }
  | Got_page of Ra.Partition.fetch_data
  | Page_error
  | Overwrite of write_set
  | Batch_ok
  | Invalidate of { seg : Ra.Sysname.t; page : int }
  | Invalidated of { dirty : bytes option }
  | Downgrade of { seg : Ra.Sysname.t; page : int }
  | Downgraded of { dirty : bytes option }
  | Create_segment of { seg : Ra.Sysname.t; size : int }
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
  | Prepare of { txn : txn_id; writes : span_set }
  | Vote of bool
  | Commit of { txn : txn_id }
  | Abort of { txn : txn_id }
  | Txn_done
  | List_objects
  | Objects of Ra.Sysname.t list
  | Read_pages of { seg : Ra.Sysname.t; from : int; count : int }
      (** Bulk replica read for re-replication: returns up to [count]
          non-zero pages starting at [from], with no effect on the
          owner or copyset tables. *)
  | Pages of { size : int; pages : (int * bytes) list }
  | Mirror_writes of write_set
      (** Committed writes forwarded by a segment's primary to its
          backups; applied to the store without further forwarding. *)
  | Backfill of write_set
      (** Re-replication catch-up copy: each page is applied only if
          the receiving store still holds it zeroed.  The healing
          target is enlisted as a mirror before the backfill starts,
          so a page the backfill finds non-zero was written by a
          fresher mirrored write — overwriting it would lose a
          committed update. *)
  | Inval_batch of (Ra.Sysname.t * int) list
      (** Release-mode flush: the batched invalidations a lock scope
          deferred, delivered to one copyset member as a single RPC
          when the scope's dirty pages land at the home.  The copy is
          dropped without returning dirty data (an unflushed write on
          an invalidated release page was outside lock discipline). *)
  | Put_spans of span_set
      (** Writeback of a compute node's dirty bytes: per page, the
          (offset, bytes) spans it wrote, laid over the home's stored
          image.  Sub-page application keeps concurrent release-mode
          writers to disjoint bytes of one page from clobbering each
          other. *)
  | Merge_delta of (Ra.Sysname.t * int * int * bytes) list
      (** Commutative flush: per page, (segment, page, twin-stamp,
          delta) where the delta is the word-wise difference of the
          replica's writes against its twin and the stamp is the
          client's never-reused id for that twin.  Retransmits of one
          call are absorbed by the transport's exactly-once cache;
          the stamp covers the other duplicate path — a fresh call
          re-sent after a client-visible timeout whose first copy did
          land.  The home remembers per (client, page) the last
          (stamp, delta) applied and, on a repeated stamp, applies
          only the difference against the recorded delta, so an Add
          delta is never counted twice. *)
  | Merged of write_set
      (** Post-merge home images, returned so the flushing replica
          refreshes its copy (anti-entropy rides the flush reply). *)

let service = 10
let client_service = 11

let write_set_bytes ws =
  List.fold_left (fun acc (_, _, data) -> acc + 24 + Bytes.length data) 0 ws

(* Bulk replica reads carry a page number plus payload per entry,
   charged like a write-set entry (24-byte header per page). *)
let pages_bytes pages =
  List.fold_left (fun acc (_, data) -> acc + 24 + Bytes.length data) 0 pages

let request_bytes = function
  | Get_page _ -> 48
  | Got_page (Ra.Partition.Data b) -> 48 + Bytes.length b
  | Got_page Ra.Partition.Zeroed -> 48
  | Page_error -> 32
  | Overwrite ws -> 48 + write_set_bytes ws
  | Batch_ok -> 32
  | Invalidate _ | Downgrade _ -> 48
  | Invalidated { dirty } | Downgraded { dirty } -> (
      match dirty with Some b -> 48 + Bytes.length b | None -> 48)
  | Create_segment _ | Delete_segment _ -> 48
  | Segment_ok | Segment_error -> 32
  | Lock_segment _ -> 48
  | Lock_granted | Lock_cancelled -> 32
  | Get_descriptor _ -> 48
  | Descriptor (Some d) -> 48 + Store.Directory.descriptor_bytes d
  | Descriptor None -> 48
  | Register_object { descriptor; _ } ->
      48 + Store.Directory.descriptor_bytes descriptor
  | Unregister_object _ -> 48
  | Registered -> 32
  | Prepare { writes; _ } -> 64 + Store.Wal.writes_bytes writes
  | Vote _ -> 32
  | Commit _ | Abort _ -> 48
  | Txn_done -> 32
  | List_objects -> 32
  | Objects names -> 32 + (24 * List.length names)
  | Read_pages _ -> 48
  | Pages { pages; _ } -> 48 + pages_bytes pages
  | Mirror_writes ws -> 48 + write_set_bytes ws
  | Backfill ws -> 48 + write_set_bytes ws
  | Inval_batch pages -> 32 + (24 * List.length pages)
  | Put_spans entries -> 48 + Store.Wal.writes_bytes entries
  | Merge_delta ds ->
      List.fold_left
        (fun acc (_, _, _, delta) -> acc + 32 + Bytes.length delta)
        48 ds
  | Merged ws -> 48 + write_set_bytes ws
  | _ -> 64

let call node ~dst body =
  Ratp.Endpoint.call node.Ra.Node.endpoint ~dst ~service
    ~size:(request_bytes body) body

let call_client node ~dst body =
  Ratp.Endpoint.call node.Ra.Node.endpoint ~dst ~service:client_service
    ~size:(request_bytes body) body
