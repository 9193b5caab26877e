module P = Protocol

(* Per page: who holds it, and the mutex that serializes the page's
   coherence actions. *)
type owner_state = {
  mutex : Sim.Mutex.t;
  mutable owner : Net.Address.t option;
  mutable copyset : Net.Address.t list;
}

type t = {
  node : Ra.Node.t;
  store : Store.Segment_store.t;
  disk : Store.Disk.t;
  directory : Store.Directory.t;
  mutable locks : Lock_table.t;
  owners : owner_state Ra.Sysname.Page_table.t;
  suspects : (Net.Address.t, unit) Hashtbl.t;
      (* nodes whose recalls timed out, or that the membership view
         condemned; skipped until they speak again or the view turns
         them back Alive *)
  mutable mirrors : Ra.Sysname.t -> Net.Address.t list;
      (* backup data servers for a segment (replication > 1); the
         cluster wires this so only a segment's current primary
         forwards *)
  mode_of : Ra.Sysname.t -> Ra.Partition.consistency;
      (* the segment's coherence mode, resolved through the same
         lookup the clients use *)
  warmed : unit Ra.Sysname.Table.t;
      (* segments whose backing file has been read at least once; the
         first touch pays a disk read (cold buffer cache) *)
  merge_applied : (Net.Address.t * Ra.Sysname.t * int, int * bytes) Hashtbl.t;
      (* last (twin-stamp, delta) combined per (client, page): a
         Merge_delta re-sent after a client-visible timeout repeats
         its stamp, and only the difference against the recorded
         delta is applied — the transport's exactly-once cache only
         dedups retransmits of the same call, not a fresh call *)
  served : Sim.Stats.counter;
  invals : Sim.Stats.counter;
  downs : Sim.Stats.counter;
  mirrored : Sim.Stats.counter;
  deferred : Sim.Stats.counter;
      (* per-copy invalidations a release-mode write fault skipped *)
  flush_bursts : Sim.Stats.counter;
      (* release flushes that sent at least one Inval_batch *)
  flush_batch : Sim.Stats.hist;
      (* pages per Inval_batch RPC: how much each burst amortizes *)
  merges : Sim.Stats.counter;  (* commutative page merges applied *)
  participant : Participant.t;
}

let node t = t.node
let store t = t.store
let directory t = t.directory
let participant t = t.participant

let owner_state t key =
  match Ra.Sysname.Page_table.find_opt t.owners key with
  | Some s -> s
  | None ->
      let s =
        {
          mutex = Sim.Mutex.create ~label:"dsm-page" ();
          owner = None;
          copyset = [];
        }
      in
      Ra.Sysname.Page_table.replace t.owners key s;
      s

(* Forward committed page images to the backups of the segments they
   touch.  Fire-and-forget durability: a timed-out backup is left for
   the re-replication pass to repair, and [Mirror_writes] is applied
   without re-forwarding, so a stale mirrors table cannot loop. *)
let mirror_writes t writes =
  let writes =
    List.filter
      (fun (seg, _, _) -> Store.Segment_store.exists t.store seg)
      writes
  in
  if writes <> [] then begin
    let self = t.node.Ra.Node.id in
    let targets =
      List.concat_map (fun (seg, _, _) -> t.mirrors seg) writes
      |> List.sort_uniq Net.Address.compare
      |> List.filter (fun a ->
             (not (Net.Address.equal a self)) && not (Hashtbl.mem t.suspects a))
    in
    if targets <> [] then begin
      let send dst =
        let ws =
          List.filter
            (fun (seg, _, _) ->
              List.exists (Net.Address.equal dst) (t.mirrors seg))
            writes
        in
        Sim.Stats.incr_by t.mirrored (List.length ws);
        ignore (P.call t.node ~dst (P.Mirror_writes ws))
      in
      Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.mirror" (fun () ->
          ignore (Obs.Tracer.fanout ~label:"dsm-mirror" targets ~f:send))
    end
  end

(* Read fault: pull the current contents of a page back from its
   owner (dirty write copy) into the store, demoting the owner's
   frame to a read copy.  A single peer, so nothing to fan out.  A
   dead owner simply times out and the store copy stands (its
   unwritten updates are lost, which is correct crash semantics for
   non-committed data). *)
let recall t key =
  let seg, page = key in
  let st = owner_state t key in
  match st.owner with
  | None -> ()
  | Some w ->
      Sim.Stats.incr t.downs;
      (if not (Hashtbl.mem t.suspects w) then
         Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.recall" @@ fun () ->
         match P.call_client t.node ~dst:w (P.Downgrade { seg; page }) with
         | Ok (P.Downgraded { dirty = Some d }) ->
             Store.Segment_store.write_page t.store seg page d
         | Ok _ -> ()
         | Error Ratp.Endpoint.Timeout ->
             (* the owner is unreachable: remember that and stop
                waiting on it until it speaks to us again *)
             Hashtbl.replace t.suspects w ());
      st.owner <- None;
      if not (List.mem w st.copyset) then st.copyset <- w :: st.copyset

(* The write-fault path: pull back the owner's (possibly dirty) copy
   and invalidate every read copy.  The protocol needs each peer's
   answer but no ordering between peers, so all RPCs go out in one
   concurrent fan-out (Li–Hudak permits it: every target ends up
   invalid either way) and a write fault costs one round trip — or
   one retry-timeout, paid once, when suspects are present — instead
   of one per copyset member.

   Determinism: targets are fixed (sorted) before the fan-out, the
   invalidation counter is bumped before any RPC is issued, and
   replies are folded into [suspects] in target order at the join. *)
let invalidate_copies t key ~except =
  let seg, page = key in
  let st = owner_state t key in
  let owner_target =
    match st.owner with
    | Some w when not (Net.Address.equal w except) ->
        Sim.Stats.incr t.invals;
        if Hashtbl.mem t.suspects w then [] else [ w ]
    | Some _ | None -> []
  in
  let reader_targets =
    List.sort Net.Address.compare st.copyset
    |> List.filter (fun c ->
           not (Net.Address.equal c except) && not (Hashtbl.mem t.suspects c))
  in
  (* counting stays outside the predicate: filter is free to
     re-evaluate, and selection must not have side effects *)
  List.iter (fun _ -> Sim.Stats.incr t.invals) reader_targets;
  let invalidate peer =
    (peer, P.call_client t.node ~dst:peer (P.Invalidate { seg; page }))
  in
  let targets = owner_target @ reader_targets in
  let replies =
    match targets with
    | [] -> []
    | _ ->
        Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.inval" (fun () ->
            Obs.Tracer.fanout ~label:"dsm-inval" targets ~f:invalidate)
  in
  List.iter
    (fun (peer, reply) ->
      match reply with
      | Ok (P.Invalidated { dirty = Some d }) ->
          Store.Segment_store.write_page t.store seg page d
      | Ok _ -> ()
      | Error Ratp.Endpoint.Timeout -> Hashtbl.replace t.suspects peer ())
    replies;
  st.owner <- None;
  st.copyset <- List.filter (Net.Address.equal except) st.copyset

(* Release-mode flush: the invalidations deferred by every write
   fault in the lock scope go out now, as the scope's dirty pages
   land at the home.  Each copyset member gets ONE Inval_batch RPC
   covering all the pages it caches, and all members are hit in a
   single concurrent fan-out — N writes under a lock cost one burst
   instead of N.  The sender of the writes keeps its (up to date)
   copy; everyone else refetches on next touch, which is the
   "acquire pulls fresh pages" half of the protocol. *)
let release_flush t writes ~except =
  let per_peer : (Net.Address.t, (Ra.Sysname.t * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let seen = Ra.Sysname.Page_table.create 16 in
  List.iter
    (fun (seg, page, _) ->
      if
        (not (Ra.Sysname.Page_table.mem seen (seg, page)))
        && t.mode_of seg = Ra.Partition.Release
      then begin
        Ra.Sysname.Page_table.add seen (seg, page) ();
        match Ra.Sysname.Page_table.find_opt t.owners (seg, page) with
        | None -> ()
        | Some st ->
            List.iter
              (fun c ->
                if
                  (not (Net.Address.equal c except))
                  && not (Hashtbl.mem t.suspects c)
                then begin
                  let cell =
                    match Hashtbl.find_opt per_peer c with
                    | Some cell -> cell
                    | None ->
                        let cell = ref [] in
                        Hashtbl.replace per_peer c cell;
                        cell
                  in
                  cell := (seg, page) :: !cell
                end)
              st.copyset;
            st.owner <- None;
            st.copyset <- List.filter (Net.Address.equal except) st.copyset
      end)
    writes;
  let targets =
    Hashtbl.fold (fun peer cell acc -> (peer, List.rev !cell) :: acc) per_peer []
    |> List.sort (fun (a, _) (b, _) -> Net.Address.compare a b)
  in
  if targets <> [] then begin
    Sim.Stats.incr t.flush_bursts;
    (* counting outside the fan-out keeps the trace deterministic *)
    List.iter
      (fun (_, pages) ->
        Sim.Stats.incr t.invals;
        Sim.Stats.hadd t.flush_batch (float_of_int (List.length pages)))
      targets;
    let send (peer, pages) =
      match P.call_client t.node ~dst:peer (P.Inval_batch pages) with
      | Ok _ -> ()
      | Error Ratp.Endpoint.Timeout -> Hashtbl.replace t.suspects peer ()
    in
    Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.release_flush" (fun () ->
        ignore (Obs.Tracer.fanout ~label:"dsm-release" targets ~f:send))
  end

let warm_segment t seg =
  if not (Ra.Sysname.Table.mem t.warmed seg) then begin
    Ra.Sysname.Table.replace t.warmed seg ();
    (* objects are stored in files on the data server: the first
       access to a cold segment reads it from disk *)
    Store.Disk.read t.disk ~bytes:Ra.Page.size
  end

let handle_get t ~src seg page mode =
  let key = (seg, page) in
  let st = owner_state t key in
  Sim.Mutex.with_lock st.mutex (fun () ->
      if not (Store.Segment_store.exists t.store seg) then P.Page_error
      else begin
        warm_segment t seg;
        (match mode with
        | Ra.Partition.Read ->
            (match st.owner with
            | Some w when not (Net.Address.equal w src) -> recall t key
            | Some _ ->
                (* the owner itself re-reads after losing its frame *)
                st.owner <- None
            | None -> ());
            if not (List.mem src st.copyset) then
              st.copyset <- src :: st.copyset
        | Ra.Partition.Write -> (
            match t.mode_of seg with
            | Ra.Partition.One_copy ->
                invalidate_copies t key ~except:src;
                st.owner <- Some src;
                st.copyset <- []
            | Ra.Partition.Release | Ra.Partition.Commutative _ ->
                (* the invalidation fan-out is deferred to the flush
                   that ends the writer's scope (or, for commutative
                   segments, never happens); the writer joins the
                   copyset like a reader and no owner is recorded, so
                   concurrent readers keep hitting the store *)
                let skipped =
                  List.length
                    (List.filter
                       (fun c -> not (Net.Address.equal c src))
                       st.copyset)
                in
                Sim.Stats.incr_by t.deferred skipped;
                if not (List.mem src st.copyset) then
                  st.copyset <- src :: st.copyset));
        Sim.Stats.incr t.served;
        P.Got_page (Store.Segment_store.read_page t.store seg page)
      end)

(* Whether every item names a segment this server stores.  Batches
   that fail it are refused whole, before anything is applied:
   skipping just the orphaned entries would let the client mark those
   pages clean and lose the writes. *)
let stores_all t seg_of items =
  List.for_all (fun x -> Store.Segment_store.exists t.store (seg_of x)) items

let apply_writes t writes =
  List.iter
    (fun (seg, page, data) ->
      if Store.Segment_store.exists t.store seg then
        Store.Segment_store.write_page t.store seg page data)
    writes

(* Lay each page's spans over a copy of its stored image (the stored
   image is shared with readers' frames and messages in flight) and
   return the full images that result, for the copyset flush and the
   backups: a backup that missed an earlier fire-and-forget mirror
   must not lay spans over a stale base.  A 2PC commit and every
   [Put_spans] writeback apply through here. *)
let apply_spans ?lsn t writes =
  List.filter_map
    (fun (seg, page, spans) ->
      if Store.Segment_store.exists t.store seg then
        Some
          (seg, page, Store.Segment_store.apply_spans ?lsn t.store seg page spans)
      else None)
    writes

(* Span names for served operations — static strings, so labelling a
   traced request allocates nothing. *)
let op_label = function
  | P.Get_page _ -> "serve.get"
  | P.Put_spans _ -> "serve.put"
  | P.Merge_delta _ -> "serve.merge"
  | P.Overwrite _ | P.Mirror_writes _ | P.Backfill _ -> "serve.mirror"
  | P.Read_pages _ -> "serve.read"
  | P.Create_segment _ | P.Delete_segment _ -> "serve.seg"
  | P.Lock_segment _ -> "serve.lock"
  | P.Get_descriptor _ | P.Register_object _ | P.Unregister_object _
  | P.List_objects ->
      "serve.desc"
  | P.Prepare _ -> "serve.prepare"
  | P.Commit _ -> "serve.commit"
  | P.Abort _ -> "serve.abort"
  | _ -> "serve.other"

let handle t ~src body =
  (* any message from a node proves it is alive again *)
  Hashtbl.remove t.suspects src;
  match body with
  | P.Get_page { seg; page; mode } -> handle_get t ~src seg page mode
  | P.Put_spans entries ->
      (* every writeback (flush, lcp commit, eviction) lays each
         page's written spans over the current store image, so
         concurrent release-mode lock scopes writing disjoint bytes of
         one page never clobber each other *)
      if not (stores_all t (fun (seg, _, _) -> seg) entries) then
        P.Segment_error
      else begin
        let images = apply_spans t entries in
        release_flush t images ~except:src;
        mirror_writes t images;
        P.Batch_ok
      end
  | P.Merge_delta deltas ->
      (* commutative flush: combine each delta into the home image
         under the segment's merge operator and return the post-merge
         images so the replica refreshes.  The transport's
         exactly-once call cache absorbs retransmits of one call; the
         twin-stamp absorbs the other duplicate path — a fresh call
         re-sent after a client-visible timeout whose first copy did
         land.  On a repeated stamp only the difference against the
         recorded delta is applied ([merge_delta] computes exactly
         that: new minus recorded for Add, the absolute values
         themselves for the idempotent Max), so nothing is ever
         counted twice. *)
      if not (stores_all t (fun (seg, _, _, _) -> seg) deltas) then
        P.Segment_error
      else begin
        let merged =
          List.map
            (fun (seg, page, stamp, delta) ->
              let op =
                match t.mode_of seg with
                | Ra.Partition.Commutative op -> op
                | Ra.Partition.One_copy | Ra.Partition.Release ->
                    Ra.Partition.Max
              in
              let effective =
                if stamp = 0 then Some delta (* no twin: never dedup *)
                else begin
                  let key = (src, seg, page) in
                  match Hashtbl.find_opt t.merge_applied key with
                  | Some (s, prev) when s = stamp ->
                      Hashtbl.replace t.merge_applied key (stamp, delta);
                      Some (Ra.Partition.merge_delta op ~base:prev ~current:delta)
                  | Some (s, _) when s > stamp ->
                      (* superseded by this client's own later flush *)
                      None
                  | Some _ | None ->
                      Hashtbl.replace t.merge_applied key (stamp, delta);
                      Some delta
                end
              in
              (* merged into a copy: the stored image is shared *)
              let into =
                match Store.Segment_store.read_page t.store seg page with
                | Ra.Partition.Data b -> Bytes.copy b
                | Ra.Partition.Zeroed -> Bytes.make Ra.Page.size '\000'
              in
              (match effective with
              | Some d ->
                  Ra.Partition.apply_merge op ~into d;
                  Store.Segment_store.write_page t.store seg page into;
                  Sim.Stats.incr t.merges
              | None -> ());
              (seg, page, into))
            deltas
        in
        mirror_writes t merged;
        P.Merged merged
      end
  | P.Overwrite writes ->
      (* replica propagation: force these page images in, dropping
         every cached copy so no node can serve stale data *)
      List.iter
        (fun (seg, page, data) ->
          if Store.Segment_store.exists t.store seg then
            Sim.Mutex.with_lock (owner_state t (seg, page)).mutex (fun () ->
                invalidate_copies t (seg, page) ~except:(-1);
                Store.Segment_store.write_page t.store seg page data))
        writes;
      mirror_writes t writes;
      P.Batch_ok
  | P.Mirror_writes writes ->
      (* primary → backup propagation; never re-forwarded *)
      apply_writes t writes;
      P.Batch_ok
  | P.Backfill writes ->
      (* re-replication catch-up: the sender enlisted this store as a
         mirror before reading these pages, so any page that is no
         longer zeroed was overwritten by a fresher mirrored write and
         must be left alone *)
      List.iter
        (fun (seg, page, data) ->
          if Store.Segment_store.exists t.store seg then
            match Store.Segment_store.read_page t.store seg page with
            | Ra.Partition.Zeroed ->
                Store.Segment_store.write_page t.store seg page data
            | Ra.Partition.Data _ -> ())
        writes;
      P.Batch_ok
  | P.Read_pages { seg; from; count } ->
      if not (Store.Segment_store.exists t.store seg) then P.Page_error
      else begin
        warm_segment t seg;
        let size = Store.Segment_store.size t.store seg in
        let pages_in_seg = (size + Ra.Page.size - 1) / Ra.Page.size in
        let last = min pages_in_seg (from + count) in
        let rec go p acc =
          if p >= last then List.rev acc
          else
            match Store.Segment_store.read_page t.store seg p with
            | Ra.Partition.Zeroed -> go (p + 1) acc
            | Ra.Partition.Data b -> go (p + 1) ((p, b) :: acc)
        in
        P.Pages { size; pages = go from [] }
      end
  | P.Create_segment { seg; size } ->
      if Store.Segment_store.exists t.store seg then P.Segment_error
      else begin
        Store.Segment_store.create_segment t.store seg ~size;
        P.Segment_ok
      end
  | P.Delete_segment seg ->
      Store.Segment_store.delete_segment t.store seg;
      let doomed =
        Hashtbl.fold
          (fun ((_, s, _) as k) _ acc ->
            if Ra.Sysname.equal s seg then k :: acc else acc)
          t.merge_applied []
      in
      List.iter (Hashtbl.remove t.merge_applied) doomed;
      Ra.Sysname.Page_table.iter
        (fun (s, _) st ->
          if Ra.Sysname.equal s seg then begin
            st.owner <- None;
            st.copyset <- []
          end)
        t.owners;
      P.Segment_ok
  | P.Lock_segment { seg; kind; txn } -> (
      match Lock_table.acquire t.locks seg txn kind with
      | `Granted -> P.Lock_granted
      | `Cancelled -> P.Lock_cancelled)
  | P.Get_descriptor obj ->
      (* the object header lives with its segments on disk *)
      Store.Disk.read t.disk ~bytes:512;
      P.Descriptor (Store.Directory.lookup t.directory obj)
  | P.Register_object { obj; descriptor } ->
      Store.Directory.register t.directory obj descriptor;
      P.Registered
  | P.Unregister_object obj ->
      Store.Directory.remove t.directory obj;
      P.Registered
  | P.Prepare { txn; writes } ->
      P.Vote (Participant.prepare t.participant txn writes)
  | P.Commit { txn } ->
      Participant.decide t.participant txn ~commit:true;
      P.Txn_done
  | P.Abort { txn } ->
      Participant.decide t.participant txn ~commit:false;
      P.Txn_done
  | P.List_objects -> P.Objects (Store.Directory.objects t.directory)
  | _ -> P.Page_error

let create node ?group_commit_window ?checkpoint_every
    ?(consistency = fun _ -> Ra.Partition.One_copy) () =
  let disk = Store.Disk.create (Printf.sprintf "disk-%d" node.Ra.Node.id) in
  let store = Store.Segment_store.create () in
  (* the participant calls back into the server it belongs to, so the
     record is built lazily and forced at once; no callback runs
     before [create] returns *)
  let rec self =
    lazy
      {
        node;
        store;
        disk;
        directory = Store.Directory.create ();
        locks = Lock_table.create ();
        owners = Ra.Sysname.Page_table.create 64;
        suspects = Hashtbl.create 8;
        mirrors = (fun _ -> []);
        mode_of = consistency;
        warmed = Ra.Sysname.Table.create 64;
        merge_applied = Hashtbl.create 16;
        served = Sim.Stats.counter "dsm/pages_served";
        invals = Sim.Stats.counter "dsm/invalidations";
        downs = Sim.Stats.counter "dsm/downgrades";
        mirrored = Sim.Stats.counter "dsm/mirrored_writes";
        deferred = Sim.Stats.counter "dsm/mode/deferred_invals";
        flush_bursts = Sim.Stats.counter "dsm/mode/release_flush_bursts";
        flush_batch = Sim.Stats.hist "dsm/mode/release_flush_batch";
        merges = Sim.Stats.counter "dsm/mode/merges_applied";
        participant =
          Participant.create node store disk ~group_commit_window
            ~checkpoint_every
            ~stores_all:(fun writes ->
              stores_all (Lazy.force self) (fun (seg, _, _) -> seg) writes)
            ~apply_spans:(fun ~lsn writes ->
              apply_spans ~lsn (Lazy.force self) writes)
            ~locks:(fun () -> (Lazy.force self).locks)
            ~publish:(fun ~except images ->
              let t = Lazy.force self in
              release_flush t images ~except;
              mirror_writes t images);
      }
  in
  let t = Lazy.force self in
  Ratp.Endpoint.serve node.Ra.Node.endpoint ~service:P.service
    (fun ~src body ->
      Obs.Tracer.with_span ~node:node.Ra.Node.id (op_label body) (fun () ->
          let reply = handle t ~src body in
          (reply, P.request_bytes reply)));
  t

let set_mirrors t f = t.mirrors <- f

(* The sticky-suspect fix: suspicion is owned by the membership view,
   not by a single RaTP timeout.  A Dead member is skipped in every
   coherence fan-out; an Alive verdict (heartbeats resumed) clears the
   suspicion even if the peer never sends this server a request.  A
   Suspect member is on probation: the local timeout evidence, if any,
   stands until heartbeats actually recover. *)
let apply_view t (v : Membership.Monitor.view) =
  List.iter
    (fun (m : Membership.Monitor.member) ->
      if not (Net.Address.equal m.addr t.node.Ra.Node.id) then
        match m.status with
        | Membership.Monitor.Dead -> Hashtbl.replace t.suspects m.addr ()
        | Membership.Monitor.Alive -> Hashtbl.remove t.suspects m.addr
        | Membership.Monitor.Suspect -> ())
    v.Membership.Monitor.members

let suspected t =
  Hashtbl.fold (fun a () acc -> a :: acc) t.suspects []
  |> List.sort Net.Address.compare

(* Coherence and lock state are volatile; the participant re-takes
   the locks of whatever its log left in doubt. *)
let recover t =
  Ra.Sysname.Page_table.reset t.owners;
  Hashtbl.reset t.suspects;
  t.locks <- Lock_table.create ();
  Participant.recover t.participant

let owner_of t seg page =
  match Ra.Sysname.Page_table.find_opt t.owners (seg, page) with
  | Some st -> st.owner
  | None -> None

let copyset_of t seg page =
  match Ra.Sysname.Page_table.find_opt t.owners (seg, page) with
  | Some st -> List.sort Net.Address.compare st.copyset
  | None -> []

let metrics t =
  Sim.Stats.
    [
      Counter t.served;
      Counter t.invals;
      Counter t.downs;
      Counter t.mirrored;
      Counter t.deferred;
      Counter t.flush_bursts;
      Hist t.flush_batch;
      Counter t.merges;
    ]
  @ Store.Disk.metrics t.disk
  @ Participant.metrics t.participant
