module P = Protocol

type owner_state = {
  mutable owner : Net.Address.t option;
  mutable copyset : Net.Address.t list;
}

module Txn_table = Hashtbl.Make (struct
  type t = P.txn_id

  let equal a b = P.txn_compare a b = 0
  let hash (t : t) = Hashtbl.hash (t.P.tnode, t.P.tseq)
end)

(* What a participant remembers about a prepared transaction: the
   page images to apply at commit, and (under group commit) the
   before-images recovery needs to undo a crash-window apply. *)
type prep_entry = {
  writes : P.write_set;
  undo : (Ra.Sysname.t * int * bytes option) list;
}

type t = {
  node : Ra.Node.t;
  store : Store.Segment_store.t;
  disk : Store.Disk.t;
  wal : Store.Wal.t;
  directory : Store.Directory.t;
  mutable locks : Lock_table.t;
  page_mutexes : (Ra.Sysname.t * int, Sim.Mutex.t) Hashtbl.t;
  owners : (Ra.Sysname.t * int, owner_state) Hashtbl.t;
  suspects : (Net.Address.t, unit) Hashtbl.t;
      (* nodes whose recalls timed out, or that the membership view
         condemned; skipped until they speak again or the view turns
         them back Alive *)
  mutable mirrors : Ra.Sysname.t -> Net.Address.t list;
      (* backup data servers for a segment (replication > 1); the
         cluster wires this so only a segment's current primary
         forwards *)
  modes : Ra.Partition.consistency Ra.Sysname.Table.t;
      (* per-segment consistency mode (absent = One_copy); populated
         at Create_segment and by [set_consistency] *)
  warmed : unit Ra.Sysname.Table.t;
      (* segments whose backing file has been read at least once; the
         first touch pays a disk read (cold buffer cache) *)
  merge_applied : (Net.Address.t * Ra.Sysname.t * int, int * bytes) Hashtbl.t;
      (* last (twin-stamp, delta) combined per (client, page): a
         Merge_delta re-sent after a client-visible timeout repeats
         its stamp, and only the difference against the recorded
         delta is applied — the transport's exactly-once cache only
         dedups retransmits of the same call, not a fresh call *)
  prepared : prep_entry Txn_table.t;
  presume_abort_after : Sim.Time.span;
  checkpoint_every : Sim.Time.span option;
  mutable cp_armed : bool;
      (* checkpoints are activity-driven: the first prepare after a
         quiet period arms a one-shot timer, so an idle server leaves
         no perpetual event chain behind *)
  mutable oracle : (int * int) -> [ `Committed | `Aborted | `Pending | `Unknown ];
  served : Sim.Stats.counter;
  invals : Sim.Stats.counter;
  downs : Sim.Stats.counter;
  commit_count : Sim.Stats.counter;
  abort_count : Sim.Stats.counter;
  mirrored : Sim.Stats.counter;
  deferred : Sim.Stats.counter;
      (* per-copy invalidations a release-mode write fault skipped *)
  flush_bursts : Sim.Stats.counter;
      (* release flushes that sent at least one Inval_batch *)
  flush_batch : Sim.Stats.hist;
      (* pages per Inval_batch RPC: how much each burst amortizes *)
  merges : Sim.Stats.counter;  (* commutative page merges applied *)
}

let node t = t.node
let store t = t.store
let directory t = t.directory
let wal t = t.wal
let locks t = t.locks

let page_mutex t key =
  match Hashtbl.find_opt t.page_mutexes key with
  | Some m -> m
  | None ->
      let m = Sim.Mutex.create ~label:"dsm-page" () in
      Hashtbl.replace t.page_mutexes key m;
      m

let consistency_of t seg =
  match Ra.Sysname.Table.find_opt t.modes seg with
  | Some m -> m
  | None -> Ra.Partition.One_copy

let set_consistency t seg mode = Ra.Sysname.Table.replace t.modes seg mode

let owner_state t key =
  match Hashtbl.find_opt t.owners key with
  | Some s -> s
  | None ->
      let s = { owner = None; copyset = [] } in
      Hashtbl.replace t.owners key s;
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
          (* fan-out workers run under fresh pids: re-bind the span *)
          let parent = Obs.Tracer.current () in
          let send dst = Obs.Tracer.under parent (fun () -> send dst) in
          ignore (Sim.Fanout.map targets ~label:"dsm-mirror" ~f:send))
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
            (* fan-out workers run under fresh pids: re-bind the span *)
            let parent = Obs.Tracer.current () in
            let invalidate p = Obs.Tracer.under parent (fun () -> invalidate p) in
            Sim.Fanout.map targets ~label:"dsm-inval" ~f:invalidate)
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
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (seg, page, _) ->
      if
        (not (Hashtbl.mem seen (seg, page)))
        && consistency_of t seg = Ra.Partition.Release
      then begin
        Hashtbl.add seen (seg, page) ();
        match Hashtbl.find_opt t.owners (seg, page) with
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
        let parent = Obs.Tracer.current () in
        let send x = Obs.Tracer.under parent (fun () -> send x) in
        ignore (Sim.Fanout.map targets ~label:"dsm-release" ~f:send))
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
  Sim.Mutex.with_lock (page_mutex t key) (fun () ->
      if not (Store.Segment_store.exists t.store seg) then P.Page_error
      else begin
        warm_segment t seg;
        let st = owner_state t key in
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
            match consistency_of t seg with
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

let release_txn_everywhere t txn = Lock_table.release_txn t.locks txn

(* Whether every item names a segment this server stores.  Batches
   that fail it are refused whole, before anything is applied:
   skipping just the orphaned entries would let the client mark those
   pages clean and lose the writes. *)
let stores_all t seg_of items =
  List.for_all (fun x -> Store.Segment_store.exists t.store (seg_of x)) items

let apply_writes ?lsn t writes =
  List.iter
    (fun (seg, page, data) ->
      if Store.Segment_store.exists t.store seg then
        Store.Segment_store.write_page ?lsn t.store seg page data)
    writes

(* Cut a fuzzy checkpoint [checkpoint_every] after the first prepare
   of a busy period: the in-doubt table is snapshotted and logged
   without quiescing (commits keep enqueueing around it), and the log
   before the checkpoint record is truncated once it is durable. *)
let maybe_arm_checkpoint t =
  match t.checkpoint_every with
  | None -> ()
  | Some every ->
      if not t.cp_armed then begin
        t.cp_armed <- true;
        let eng = t.node.Ra.Node.eng in
        Sim.Engine.at eng
          (Sim.Time.add (Sim.Engine.now eng) every)
          (fun () ->
            t.cp_armed <- false;
            if t.node.Ra.Node.alive then
              ignore
                (Ra.Node.spawn t.node "wal-checkpoint" (fun () ->
                     let active =
                       Txn_table.fold
                         (fun txn e acc ->
                           {
                             Store.Wal.txn = (txn.P.tnode, txn.P.tseq);
                             writes = e.writes;
                             undo = e.undo;
                           }
                           :: acc)
                         t.prepared []
                       |> List.sort (fun a b ->
                              compare a.Store.Wal.txn b.Store.Wal.txn)
                     in
                     ignore (Store.Wal.checkpoint t.wal ~active))))
      end

let handle_prepare t txn writes =
  if not (stores_all t (fun (seg, _, _) -> seg) writes) then P.Vote false
  else begin
    maybe_arm_checkpoint t;
    let undo =
      (* before-images are only needed under group commit: without a
         daemon the commit record is durable before any page is
         applied, so there is no crash window to undo *)
      if Store.Wal.group_commit t.wal then begin
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun (seg, page, _) ->
            if Hashtbl.mem seen (seg, page) then None
            else begin
              Hashtbl.add seen (seg, page) ();
              let before =
                match Store.Segment_store.read_page t.store seg page with
                | Ra.Partition.Data b -> Some (Store.Wal.trim_image b)
                | Ra.Partition.Zeroed -> None
              in
              Some (seg, page, before)
            end)
          writes
      end
      else []
    in
    (* the vote leaves only after the prepare record is durable —
       under group commit it rides the next group flush with every
       other concurrently-preparing transaction *)
    Store.Wal.append t.wal
      (Store.Wal.Prepared { txn = (txn.P.tnode, txn.P.tseq); writes; undo });
    Txn_table.replace t.prepared txn { writes; undo };
    (* presumed abort: if the coordinator dies before deciding, the
       participant self-aborts after a timeout *)
    let eng = t.node.Ra.Node.eng in
    Sim.Engine.at eng
      (Sim.Time.add (Sim.Engine.now eng) t.presume_abort_after)
      (fun () ->
        if Txn_table.mem t.prepared txn then
          ignore
            (Ra.Node.spawn t.node "presumed-abort" (fun () ->
                 if Txn_table.mem t.prepared txn then begin
                   Store.Wal.append t.wal
                     (Store.Wal.Aborted (txn.P.tnode, txn.P.tseq));
                   Txn_table.remove t.prepared txn;
                   Sim.Stats.incr t.abort_count;
                   release_txn_everywhere t txn
                 end)));
    P.Vote true
  end

let handle_commit t ~src txn =
  match Txn_table.find_opt t.prepared txn with
  | Some { writes; _ } when Store.Wal.group_commit t.wal ->
      (* pipelined commit: the record goes into the log buffer, the
         pages are applied (tagged with the commit LSN) and the locks
         released — all in one scheduling quantum, so no request can
         observe released locks with unapplied pages — and the reply,
         which is the coordinator's ack, leaves only once the group
         flush has made the record durable *)
      let lsn =
        Store.Wal.enqueue t.wal
          (Store.Wal.Committed (txn.P.tnode, txn.P.tseq))
      in
      apply_writes t ~lsn writes;
      Txn_table.remove t.prepared txn;
      Sim.Stats.incr t.commit_count;
      release_txn_everywhere t txn;
      (* the deferred-invalidation burst waits for durability: it
         makes remote nodes refetch these pages, and a crash before
         the group flush would un-commit writes they had already
         observed (the non-group path orders the same way — its
         synchronous append precedes the burst) *)
      Store.Wal.wait_durable t.wal lsn;
      release_flush t writes ~except:src;
      mirror_writes t writes;
      P.Txn_done
  | Some { writes; _ } ->
      Store.Wal.append t.wal (Store.Wal.Committed (txn.P.tnode, txn.P.tseq));
      apply_writes t writes;
      release_flush t writes ~except:src;
      mirror_writes t writes;
      Txn_table.remove t.prepared txn;
      Sim.Stats.incr t.commit_count;
      release_txn_everywhere t txn;
      P.Txn_done
  | None ->
      release_txn_everywhere t txn;
      P.Txn_done

let handle_abort t txn =
  (match Txn_table.find_opt t.prepared txn with
  | Some _ ->
      Store.Wal.append t.wal (Store.Wal.Aborted (txn.P.tnode, txn.P.tseq));
      Txn_table.remove t.prepared txn;
      Sim.Stats.incr t.abort_count
  | None -> ());
  release_txn_everywhere t txn;
  P.Txn_done

(* Span names for served operations — static strings, so labelling a
   traced request allocates nothing. *)
let op_label = function
  | P.Get_page _ -> "serve.get"
  | P.Put_batch _ | P.Put_diffs _ -> "serve.put"
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
  | P.Put_batch writes ->
      if not (stores_all t (fun (seg, _, _) -> seg) writes) then
        P.Segment_error
      else begin
        apply_writes t writes;
        release_flush t writes ~except:src;
        mirror_writes t writes;
        P.Batch_ok
      end
  | P.Put_diffs entries ->
      (* release-mode writeback: apply each page's changed byte spans
         over the current store image, so concurrent lock scopes
         writing disjoint bytes of one page never clobber each other *)
      if not (stores_all t (fun (seg, _, _) -> seg) entries) then
        P.Segment_error
      else begin
        let images =
          List.map
            (fun (seg, page, spans) ->
              let cur =
                match Store.Segment_store.read_page t.store seg page with
                | Ra.Partition.Data b -> b
                | Ra.Partition.Zeroed -> Bytes.make Ra.Page.size '\000'
              in
              List.iter
                (fun (off, b) ->
                  let len =
                    min (Bytes.length b) (max 0 (Bytes.length cur - off))
                  in
                  if off >= 0 && len > 0 then Bytes.blit b 0 cur off len)
                spans;
              Store.Segment_store.write_page t.store seg page cur;
              (seg, page, cur))
            entries
        in
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
                match consistency_of t seg with
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
              let into =
                match Store.Segment_store.read_page t.store seg page with
                | Ra.Partition.Data b -> b
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
            Sim.Mutex.with_lock
              (page_mutex t (seg, page))
              (fun () ->
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
  | P.Create_segment { seg; size; mode } ->
      if Store.Segment_store.exists t.store seg then P.Segment_error
      else begin
        Store.Segment_store.create_segment t.store seg ~size;
        (match mode with
        | Ra.Partition.One_copy -> ()
        | m -> Ra.Sysname.Table.replace t.modes seg m);
        P.Segment_ok
      end
  | P.Delete_segment seg ->
      Store.Segment_store.delete_segment t.store seg;
      Ra.Sysname.Table.remove t.modes seg;
      let doomed =
        Hashtbl.fold
          (fun ((_, s, _) as k) _ acc ->
            if Ra.Sysname.equal s seg then k :: acc else acc)
          t.merge_applied []
      in
      List.iter (Hashtbl.remove t.merge_applied) doomed;
      Hashtbl.iter
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
  | P.Prepare { txn; writes } -> handle_prepare t txn writes
  | P.Commit { txn } -> handle_commit t ~src txn
  | P.Abort { txn } -> handle_abort t txn
  | P.List_objects -> P.Objects (Store.Directory.objects t.directory)
  | _ -> P.Page_error

let create node ?(presume_abort_after = Sim.Time.sec 60) ?group_commit_window
    ?checkpoint_every () =
  let disk = Store.Disk.create (Printf.sprintf "disk-%d" node.Ra.Node.id) in
  let group_commit =
    Option.map
      (fun window -> { Store.Wal.window; max_batch = 64 })
      group_commit_window
  in
  let t =
    {
      node;
      store =
        Store.Segment_store.create (Printf.sprintf "store-%d" node.Ra.Node.id);
      disk;
      wal =
        Store.Wal.create ?group_commit
          ~spawn:(fun name f -> ignore (Ra.Node.spawn node name f))
          disk;
      directory = Store.Directory.create ();
      locks = Lock_table.create ();
      page_mutexes = Hashtbl.create 64;
      owners = Hashtbl.create 64;
      suspects = Hashtbl.create 8;
      mirrors = (fun _ -> []);
      modes = Ra.Sysname.Table.create 16;
      warmed = Ra.Sysname.Table.create 64;
      merge_applied = Hashtbl.create 16;
      prepared = Txn_table.create 8;
      presume_abort_after;
      checkpoint_every;
      cp_armed = false;
      oracle = (fun _ -> `Unknown);
      served = Sim.Stats.counter "dsm.pages_served";
      invals = Sim.Stats.counter "dsm.invalidations";
      downs = Sim.Stats.counter "dsm.downgrades";
      commit_count = Sim.Stats.counter "dsm.commits";
      abort_count = Sim.Stats.counter "dsm.aborts";
      mirrored = Sim.Stats.counter "dsm.mirrored_writes";
      deferred = Sim.Stats.counter "dsm.deferred_invals";
      flush_bursts = Sim.Stats.counter "dsm.release_flush_bursts";
      flush_batch = Sim.Stats.hist "dsm.release_flush_batch";
      merges = Sim.Stats.counter "dsm.merges_applied";
    }
  in
  Ratp.Endpoint.serve node.Ra.Node.endpoint ~service:P.service
    (fun ~src body ->
      Obs.Tracer.with_span ~node:node.Ra.Node.id (op_label body) (fun () ->
          let reply = handle t ~src body in
          (reply, P.request_bytes reply)));
  t

let set_outcome_oracle t oracle = t.oracle <- oracle
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

let recover t =
  Hashtbl.reset t.owners;
  Hashtbl.reset t.suspects;
  Hashtbl.reset t.page_mutexes;
  Txn_table.reset t.prepared;
  t.locks <- Lock_table.create ();
  let applied = ref [] in
  let decide txn =
    match t.oracle txn with
    | `Committed -> `Commit
    | `Aborted | `Unknown -> `Abort
    | `Pending -> `Keep
  in
  let in_doubt = Store.Wal.recover t.wal t.store ~decide ~applied in
  (* transactions kept in doubt go back into the prepared table so a
     late Commit/Abort from the coordinator still applies; a timer
     re-resolves them if the decision never arrives *)
  List.iter
    (fun (p : Store.Wal.prep) ->
      let tnode, tseq = p.Store.Wal.txn in
      let writes = p.Store.Wal.writes in
      let txn = { P.tnode; tseq } in
      Txn_table.replace t.prepared txn { writes; undo = p.Store.Wal.undo };
      (* recovery locking: the in-doubt transaction's write locks
         must be held again, or later transactions would read
         state its pending commit will overwrite *)
      List.iter
        (fun (seg, _, _) ->
          match Lock_table.acquire t.locks seg txn P.W with
          | `Granted -> ()
          | `Cancelled -> ())
        (List.sort_uniq
           (fun (a, _, _) (b, _, _) -> Ra.Sysname.compare a b)
           writes);
      let eng = t.node.Ra.Node.eng in
      Sim.Engine.at eng
        (Sim.Time.add (Sim.Engine.now eng) t.presume_abort_after)
        (fun () ->
          if Txn_table.mem t.prepared txn then begin
            match t.oracle (tnode, tseq) with
            | `Committed ->
                let lsn =
                  Store.Wal.enqueue t.wal (Store.Wal.Committed (tnode, tseq))
                in
                apply_writes t ~lsn writes;
                Txn_table.remove t.prepared txn;
                release_txn_everywhere t txn
            | `Aborted | `Unknown ->
                Store.Wal.append_nowait t.wal
                  (Store.Wal.Aborted (tnode, tseq));
                Txn_table.remove t.prepared txn;
                release_txn_everywhere t txn
            | `Pending -> ()
          end))
    in_doubt

let owner_of t seg page =
  match Hashtbl.find_opt t.owners (seg, page) with
  | Some st -> st.owner
  | None -> None

let copyset_of t seg page =
  match Hashtbl.find_opt t.owners (seg, page) with
  | Some st -> List.sort Net.Address.compare st.copyset
  | None -> []

let pages_served t = Sim.Stats.value t.served
let invalidations_sent t = Sim.Stats.value t.invals
let downgrades_sent t = Sim.Stats.value t.downs
let commits t = Sim.Stats.value t.commit_count
let aborts t = Sim.Stats.value t.abort_count
let mirrored_writes t = Sim.Stats.value t.mirrored
let deferred_invals t = Sim.Stats.value t.deferred
let release_flush_bursts t = Sim.Stats.value t.flush_bursts
let merges_applied t = Sim.Stats.value t.merges

let metrics t =
  [
    ("dsm/pages_served", Obs.Registry.Counter t.served);
    ("dsm/invalidations", Obs.Registry.Counter t.invals);
    ("dsm/downgrades", Obs.Registry.Counter t.downs);
    ("dsm/commits", Obs.Registry.Counter t.commit_count);
    ("dsm/aborts", Obs.Registry.Counter t.abort_count);
    ("dsm/mirrored_writes", Obs.Registry.Counter t.mirrored);
    ("dsm/mode/deferred_invals", Obs.Registry.Counter t.deferred);
    ("dsm/mode/release_flush_bursts", Obs.Registry.Counter t.flush_bursts);
    ("dsm/mode/release_flush_batch", Obs.Registry.Hist t.flush_batch);
    ("dsm/mode/merges_applied", Obs.Registry.Counter t.merges);
    ("disk/ops", Obs.Registry.Counter (Store.Disk.ops_counter t.disk));
    ("disk/bytes", Obs.Registry.Counter (Store.Disk.bytes_counter t.disk));
    ("disk/busy_us", Obs.Registry.Counter (Store.Disk.busy_counter t.disk));
    ("disk/queue_depth", Obs.Registry.Hist (Store.Disk.queue_hist t.disk));
    ("wal/records", Obs.Registry.Counter (Store.Wal.records_counter t.wal));
    ("wal/flushes", Obs.Registry.Counter (Store.Wal.flushes_counter t.wal));
    ("wal/flush_batch", Obs.Registry.Hist (Store.Wal.batch_hist t.wal));
    ( "wal/checkpoints",
      Obs.Registry.Counter (Store.Wal.checkpoints_counter t.wal) );
    ("wal/truncated", Obs.Registry.Counter (Store.Wal.truncated_counter t.wal));
  ]
