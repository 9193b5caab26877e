module P = Protocol

(* Per page: who holds it, and the mutex that serializes the page's
   coherence actions. *)
type owner_state = {
  mutex : Sim.Mutex.t;
  mutable owner : Net.Address.t option;
  mutable copyset : Net.Address.t list;
}

(* What a participant remembers about a prepared transaction: the
   prepare record it logged (the byte spans to apply at commit and,
   under group commit, the before-images recovery needs to undo a
   crash-window apply), which a checkpoint logs again and recovery
   reads back; the presumed-abort timer that a decision makes moot;
   and whether a settler has already claimed it. *)
type prep_entry = {
  prep : Store.Wal.prep;
  mutable timer : Sim.Engine.timer;
  mutable claimed : bool;
}

(* How long a prepared participant waits for a decision before it
   asks the outcome oracle. *)
let presume_abort_after = Sim.Time.sec 60

type t = {
  node : Ra.Node.t;
  store : Store.Segment_store.t;
  disk : Store.Disk.t;
  wal : Store.Wal.t;
  directory : Store.Directory.t;
  mutable locks : Lock_table.t;
  owners : (Ra.Sysname.t * int, owner_state) Hashtbl.t;
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
  prepared : (P.txn_id, prep_entry) Hashtbl.t;
  checkpoint_every : Sim.Time.span option;
  mutable cp_armed : bool;
      (* checkpoints are activity-driven: the first prepare after a
         quiet period arms a one-shot timer, so an idle server leaves
         no perpetual event chain behind *)
  mutable oracle : P.txn_id -> [ `Committed | `Aborted | `Pending | `Unknown ];
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

let owner_state t key =
  match Hashtbl.find_opt t.owners key with
  | Some s -> s
  | None ->
      let s =
        {
          mutex = Sim.Mutex.create ~label:"dsm-page" ();
          owner = None;
          copyset = [];
        }
      in
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
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (seg, page, _) ->
      if
        (not (Hashtbl.mem seen (seg, page)))
        && t.mode_of seg = Ra.Partition.Release
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
   must not lay spans over a stale base.  [commit_prepared] and every
   [Put_spans] writeback apply through here. *)
let apply_spans ?lsn t writes =
  List.filter_map
    (fun (seg, page, spans) ->
      if Store.Segment_store.exists t.store seg then
        Some
          (seg, page, Store.Segment_store.apply_spans ?lsn t.store seg page spans)
      else None)
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
                       Hashtbl.fold (fun _ e acc -> e.prep :: acc) t.prepared []
                       |> List.sort (fun a b ->
                              compare a.Store.Wal.txn b.Store.Wal.txn)
                     in
                     ignore (Store.Wal.checkpoint t.wal ~active))))
      end

(* The entry goes, and with it the timer; the outcome is counted and
   the transaction's locks released. *)
let settle t txn e outcome =
  Sim.Engine.cancel t.node.Ra.Node.eng e.timer;
  Hashtbl.remove t.prepared txn;
  Sim.Stats.incr outcome;
  Lock_table.release_txn t.locks txn

(* The two ends of a prepared entry.  A Commit or Abort message, the
   presumed-abort timer and recovery all settle through these, so
   every outcome is logged, applied, counted and announced the same
   way.  [fst txn] is the coordinator's node, the writer whose frames
   stay valid.

   The log call can block, and a resolver and a decision message may
   both reach the entry in that window: the first claims it before
   blocking, and a later one logs, applies, counts and releases
   nothing. *)
let claim e =
  let first = not e.claimed in
  e.claimed <- true;
  first

let commit_prepared t txn e =
  if claim e then begin
    (* the record is logged (forced first without a group-commit
       daemon), the pages are applied tagged with its LSN and the
       locks released, all in one scheduling quantum after the log
       call, so no request can observe released locks with unapplied
       pages *)
    let lsn =
      if Store.Wal.group_commit t.wal then
        Store.Wal.enqueue t.wal (Store.Wal.Committed txn)
      else begin
        Store.Wal.append t.wal (Store.Wal.Committed txn);
        Store.Wal.flushed_lsn t.wal
      end
    in
    let images = apply_spans t ~lsn e.prep.Store.Wal.writes in
    settle t txn e t.commit_count;
    (* the deferred-invalidation burst and the mirrors wait for
       durability: they make remote nodes see these pages, and a crash
       before the group flush would un-commit writes they had already
       observed.  The reply, which is the coordinator's ack, waits
       too *)
    Store.Wal.wait_durable t.wal lsn;
    release_flush t images ~except:(fst txn);
    mirror_writes t images
  end

let abort_prepared t txn e =
  if claim e then begin
    Store.Wal.append t.wal (Store.Wal.Aborted txn);
    settle t txn e t.abort_count
  end

(* Presumed abort: a prepared participant that hears no decision for
   [presume_abort_after] asks the oracle.  [resolve] is the only code
   that decides between the two ends; [arm] the only code that builds
   the timer. *)
let rec arm t txn =
  let eng = t.node.Ra.Node.eng in
  Sim.Engine.timer eng
    (Sim.Time.add (Sim.Engine.now eng) presume_abort_after)
    (fun () ->
      (* a crashed server settles nothing; [recover] re-arms *)
      if t.node.Ra.Node.alive then
        ignore (Ra.Node.spawn t.node "resolve" (fun () -> resolve t txn)))

and resolve t txn =
  match Hashtbl.find_opt t.prepared txn with
  | None | Some { claimed = true; _ } -> ()
  | Some e -> (
      match t.oracle txn with
      | `Committed -> commit_prepared t txn e
      | `Aborted | `Unknown -> abort_prepared t txn e
      | `Pending ->
          Sim.Engine.cancel t.node.Ra.Node.eng e.timer;
          e.timer <- arm t txn)

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
    let prep = { Store.Wal.txn; writes; undo } in
    Store.Wal.append t.wal (Store.Wal.Prepared prep);
    Hashtbl.replace t.prepared txn { prep; timer = arm t txn; claimed = false };
    P.Vote true
  end

(* A Commit or Abort message.  A participant that holds only locks
   for [txn] has no entry: the decision just releases them. *)
let handle_decision t txn settle_prepared =
  (match Hashtbl.find_opt t.prepared txn with
  | Some e -> settle_prepared t txn e
  | None -> Lock_table.release_txn t.locks txn);
  P.Txn_done

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
  | P.Commit { txn } -> handle_decision t txn commit_prepared
  | P.Abort { txn } -> handle_decision t txn abort_prepared
  | P.List_objects -> P.Objects (Store.Directory.objects t.directory)
  | _ -> P.Page_error

let create node ?group_commit_window ?checkpoint_every
    ?(consistency = fun _ -> Ra.Partition.One_copy) () =
  let disk = Store.Disk.create (Printf.sprintf "disk-%d" node.Ra.Node.id) in
  let group_commit =
    Option.map
      (fun window -> { Store.Wal.window; max_batch = 64 })
      group_commit_window
  in
  let t =
    {
      node;
      store = Store.Segment_store.create ();
      disk;
      wal =
        Store.Wal.create ?group_commit
          ~spawn:(fun name f ->
            (* a crashed server flushes nothing: a window timer armed
               before the crash must not make its buffer durable *)
            if node.Ra.Node.alive then ignore (Ra.Node.spawn node name f))
          disk;
      directory = Store.Directory.create ();
      locks = Lock_table.create ();
      owners = Hashtbl.create 64;
      suspects = Hashtbl.create 8;
      mirrors = (fun _ -> []);
      mode_of = consistency;
      warmed = Ra.Sysname.Table.create 64;
      merge_applied = Hashtbl.create 16;
      prepared = Hashtbl.create 8;
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

(* Runs inline, so it is safe from engine context: nothing here
   blocks, and each in-doubt entry is settled by a spawned [resolve]. *)
let recover t =
  let eng = t.node.Ra.Node.eng in
  (* a pre-crash timer would settle the re-installed entry behind the
     resolver's back *)
  Hashtbl.iter (fun _ e -> Sim.Engine.cancel eng e.timer) t.prepared;
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.owners;
  Hashtbl.reset t.suspects;
  t.locks <- Lock_table.create ();
  let in_doubt = Store.Wal.recover t.wal t.store ~applied:(ref []) in
  List.iter
    (fun (prep : Store.Wal.prep) ->
      let txn = prep.Store.Wal.txn in
      Hashtbl.replace t.prepared txn
        { prep; timer = arm t txn; claimed = false };
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
           prep.Store.Wal.writes);
      ignore (Ra.Node.spawn t.node "resolve" (fun () -> resolve t txn)))
    in_doubt

let owner_of t seg page =
  match Hashtbl.find_opt t.owners (seg, page) with
  | Some st -> st.owner
  | None -> None

let copyset_of t seg page =
  match Hashtbl.find_opt t.owners (seg, page) with
  | Some st -> List.sort Net.Address.compare st.copyset
  | None -> []

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
  ]
  @ Store.Disk.metrics t.disk
  @ Store.Wal.metrics t.wal
