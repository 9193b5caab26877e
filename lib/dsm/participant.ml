module P = Protocol

type verdict = [ `Committed | `Aborted | `Pending | `Unknown ]

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
  wal : Store.Wal.t;
  prepared : (P.txn_id, prep_entry) Hashtbl.t;
  checkpoint_every : Sim.Time.span option;
  mutable cp_armed : bool;
      (* checkpoints are activity-driven: the first prepare after a
         quiet period arms a one-shot timer, so an idle server leaves
         no perpetual event chain behind *)
  mutable oracle : P.txn_id -> verdict;
  stores_all : P.span_set -> bool;
  apply_spans : lsn:int -> P.span_set -> P.write_set;
  locks : unit -> Lock_table.t;
  publish : except:Net.Address.t -> P.write_set -> unit;
  commit_count : Sim.Stats.counter;
  abort_count : Sim.Stats.counter;
}

let create node store disk ~group_commit_window ~checkpoint_every ~stores_all
    ~apply_spans ~locks ~publish =
  let group_commit =
    Option.map
      (fun window -> { Store.Wal.window; max_batch = 64 })
      group_commit_window
  in
  {
    node;
    store;
    wal =
      Store.Wal.create ?group_commit
        ~spawn:(fun name f ->
          (* a crashed server flushes nothing: a window timer armed
             before the crash must not make its buffer durable *)
          if node.Ra.Node.alive then ignore (Ra.Node.spawn node name f))
        disk;
    prepared = Hashtbl.create 8;
    checkpoint_every;
    cp_armed = false;
    oracle = (fun _ -> `Unknown);
    stores_all;
    apply_spans;
    locks;
    publish;
    commit_count = Sim.Stats.counter "dsm/commits";
    abort_count = Sim.Stats.counter "dsm/aborts";
  }

let wal t = t.wal
let set_oracle t oracle = t.oracle <- oracle

let in_doubt t =
  Hashtbl.fold (fun txn _ acc -> txn :: acc) t.prepared [] |> List.sort compare

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
  Lock_table.release_txn (t.locks ()) txn

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
    let images = t.apply_spans ~lsn e.prep.Store.Wal.writes in
    settle t txn e t.commit_count;
    (* the deferred-invalidation burst and the mirrors wait for
       durability: they make remote nodes see these pages, and a crash
       before the group flush would un-commit writes they had already
       observed.  The reply, which is the coordinator's ack, waits
       too *)
    Store.Wal.wait_durable t.wal lsn;
    t.publish ~except:(fst txn) images
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

let install t prep =
  let txn = prep.Store.Wal.txn in
  Hashtbl.replace t.prepared txn { prep; timer = arm t txn; claimed = false }

let prepare t txn writes =
  if not (t.stores_all writes) then false
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
    install t prep;
    true
  end

(* A participant that holds only locks for [txn] has no entry: the
   decision just releases them. *)
let decide t txn ~commit =
  match Hashtbl.find_opt t.prepared txn with
  | Some e -> if commit then commit_prepared t txn e else abort_prepared t txn e
  | None -> Lock_table.release_txn (t.locks ()) txn

(* Runs inline, so it is safe from engine context: nothing here
   blocks, and each in-doubt entry is settled by a spawned [resolve]. *)
let recover t =
  (* a pre-crash timer would settle the re-installed entry behind the
     resolver's back *)
  Hashtbl.iter
    (fun _ e -> Sim.Engine.cancel t.node.Ra.Node.eng e.timer)
    t.prepared;
  Hashtbl.reset t.prepared;
  let locks = t.locks () in
  List.iter
    (fun (prep : Store.Wal.prep) ->
      let txn = prep.Store.Wal.txn in
      install t prep;
      (* recovery locking: the in-doubt transaction's write locks
         must be held again, or later transactions would read
         state its pending commit will overwrite *)
      List.iter
        (fun (seg, _, _) ->
          match Lock_table.acquire locks seg txn P.W with
          | `Granted -> ()
          | `Cancelled -> ())
        (List.sort_uniq
           (fun (a, _, _) (b, _, _) -> Ra.Sysname.compare a b)
           prep.Store.Wal.writes);
      ignore (Ra.Node.spawn t.node "resolve" (fun () -> resolve t txn)))
    (Store.Wal.recover t.wal t.store ~applied:(ref []))

let metrics t =
  Sim.Stats.[ Counter t.commit_count; Counter t.abort_count ]
  @ Store.Wal.metrics t.wal
