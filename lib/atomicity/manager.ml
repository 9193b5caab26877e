module P = Dsm.Protocol
module Cl = Clouds.Cluster

exception Aborted of string

(* Internal control-flow signal: the current transaction cannot
   continue (deadlock timeout, cancelled lock, failed vote). *)
exception Txn_abort_signal

type scope = Global | Local

type status = Active | Rolling_back | Finished

type state = {
  txn : P.txn_id;
  scope : scope;
  thread_id : int;
  coord : Ra.Node.t;  (* node where the transaction began *)
  mutable status : status;
  mutable locks : (Ra.Sysname.t * P.lock_kind) list;
  mutable lock_servers : Net.Address.t list;
  mutable write_segs : Ra.Sysname.t list;
  mutable merge_segs : (Ra.Node.t * Ra.Sysname.t) list;
      (* commutative segments written under this transaction: never
         locked, never in the 2PC write set — their deltas are merged
         at the home when the transaction commits *)
  mutable nodes : Ra.Node.t list;
  mutable rolled : bool;
}

type t = {
  om : Clouds.Object_manager.t;
  cl : Cl.t;
  txns : (P.txn_id, state) Hashtbl.t;
  outcomes : (P.txn_id, bool) Hashtbl.t;  (* true = committed *)
  by_pid : (int, state) Hashtbl.t;
  local_locks : (int, Dsm.Lock_table.t) Hashtbl.t;
  write_intent : (int * Ra.Sysname.t, unit) Hashtbl.t;
      (* (coordinating node id, seg) marks; see [ensure_lock] *)
  deadlock_timeout : Sim.Time.span;
  max_retries : int;
  commit_count : Sim.Stats.counter;
  abort_count : Sim.Stats.counter;
  retry_count : Sim.Stats.counter;
  lock_rpc_count : Sim.Stats.counter;
  lock_upgrade_count : Sim.Stats.counter;
  commit_hist : Sim.Stats.hist;
}

let object_manager t = t.om

let metrics t =
  Sim.Stats.
    [
      Counter t.commit_count;
      Counter t.abort_count;
      Counter t.retry_count;
      Counter t.lock_rpc_count;
      Counter t.lock_upgrade_count;
      Hist t.commit_hist;
    ]

let local_table t node_id =
  match Hashtbl.find_opt t.local_locks node_id with
  | Some tbl -> tbl
  | None ->
      let tbl = Dsm.Lock_table.create () in
      Hashtbl.replace t.local_locks node_id tbl;
      tbl

(* One RPC per participant, all in flight at once: 2PC needs every
   participant's answer but no ordering between participants, so each
   phase costs one round trip (or one timeout) regardless of how many
   data servers the transaction spans.  Results come back in input
   order, so vote counting and error handling stay deterministic. *)
let participant_rpcs node msgs =
  Obs.Tracer.fanout ~label:"2pc-rpc" msgs ~f:(fun (dst, body) ->
      P.call node ~dst body)

(* --- rollback ------------------------------------------------------ *)

(* RPCs about a transaction must come from a live machine: the
   coordinator may be the very node whose crash we are cleaning up
   after. *)
let live_origin t st =
  if st.coord.Ra.Node.alive then st.coord
  else
    match
      Array.to_list t.cl.Cl.compute_nodes
      |> List.find_opt (fun n -> n.Ra.Node.alive)
    with
    | Some n -> n
    | None -> st.coord

let send_abort_everywhere t st =
 Obs.Tracer.with_span "2pc.abort" @@ fun () ->
  let origin = live_origin t st in
  let homes =
    List.sort_uniq Net.Address.compare
      (st.lock_servers
      @ List.filter_map
          (fun seg ->
            match Clouds.Placement.locate t.cl.Cl.placement seg with
            | home -> Some home
            | exception Ra.Partition.No_segment _ -> None)
          st.write_segs)
  in
  List.iter
    (fun r -> match r with Ok _ | Error Ratp.Endpoint.Timeout -> ())
    (participant_rpcs origin
       (List.map (fun home -> (home, P.Abort { txn = st.txn })) homes))

let rollback t st =
  if not st.rolled then begin
    st.rolled <- true;
    st.status <- Rolling_back;
    if st.scope = Global then Hashtbl.replace t.outcomes st.txn false;
    (* undo: drop the dirty frames; the stores still hold the
       pre-transaction images *)
    List.iter
      (fun node ->
        List.iter
          (fun seg -> Ra.Mmu.drop_segment node.Ra.Node.mmu seg)
          st.write_segs)
      st.nodes;
    (match st.scope with
    | Global -> send_abort_everywhere t st
    | Local ->
        List.iter
          (fun node ->
            Dsm.Lock_table.release_txn (local_table t node.Ra.Node.id) st.txn)
          st.nodes);
    st.status <- Finished;
    Sim.Stats.incr t.abort_count
  end

(* --- locking ------------------------------------------------------- *)

(* Deadlock watchdogs must run the FULL rollback — dropping the
   transaction's dirty frames before releasing its locks — otherwise
   the competing transaction can grab the lock and page in our
   uncommitted data through DSM before we discard it. *)
let spawn_rollback t st =
  ignore
    (Sim.Engine.spawn t.cl.Cl.eng "deadlock-breaker" (fun () -> rollback t st))

let held_kind st seg =
  List.find_map
    (fun (s, k) -> if Ra.Sysname.equal s seg then Some k else None)
    st.locks

let note_lock st seg kind =
  st.locks <- (seg, kind) :: List.filter (fun (s, _) -> not (Ra.Sysname.equal s seg)) st.locks

(* Deadlock timeouts are jittered: when several transactions block on
   each other, the one whose watchdog fires last survives the others'
   aborts and gets the lock instead of everyone giving up at once. *)
let jittered_timeout t =
  let u = Sim.Rng.float (Sim.Engine.rng t.cl.Cl.eng) 1.0 in
  t.deadlock_timeout + int_of_float (float_of_int t.deadlock_timeout *. u)

(* Deadlock watchdog: if the lock call it guards has not returned by
   the deadline, abort the transaction server-side so the blocked
   request resolves.  The caller cancels it as soon as the call
   returns, whatever the outcome. *)
let arm_watchdog t st =
  let eng = t.cl.Cl.eng in
  Sim.Engine.timer eng
    (Sim.Time.add (Sim.Engine.now eng) (jittered_timeout t))
    (fun () ->
      if st.status = Active then begin
        st.status <- Rolling_back;
        spawn_rollback t st
      end)

let acquire_global t st node seg kind =
  let home = Clouds.Placement.locate t.cl.Cl.placement seg in
  if not (List.mem home st.lock_servers) then
    st.lock_servers <- home :: st.lock_servers;
  Sim.Stats.incr t.lock_rpc_count;
  let watchdog = arm_watchdog t st in
  let reply =
    Obs.Tracer.with_span "txn.lock" (fun () ->
        P.call node ~dst:home (P.Lock_segment { seg; kind; txn = st.txn }))
  in
  Sim.Engine.cancel t.cl.Cl.eng watchdog;
  match reply with
  | Ok P.Lock_granted ->
      if st.status <> Active then raise Txn_abort_signal;
      note_lock st seg kind
  | Ok P.Lock_cancelled -> raise Txn_abort_signal
  | Ok _ | Error Ratp.Endpoint.Timeout ->
      st.status <- (if st.status = Active then Rolling_back else st.status);
      raise Txn_abort_signal

let acquire_local t st node seg kind =
  let tbl = local_table t node.Ra.Node.id in
  let watchdog = arm_watchdog t st in
  let outcome = Dsm.Lock_table.acquire tbl seg st.txn kind in
  Sim.Engine.cancel t.cl.Cl.eng watchdog;
  match outcome with
  | `Granted ->
      if st.status <> Active then raise Txn_abort_signal;
      note_lock st seg kind
  | `Cancelled -> raise Txn_abort_signal

(* Write intent: a global read-then-upgrade costs two serial lock
   round trips, and two transactions that both hold R and both wait
   for W deadlock until a watchdog fires.  So an upgrade marks the
   segment on the coordinating node, and that node's later global
   transactions take W on their first touch, read or write.  A
   transaction that then commits without writing the segment clears
   the mark; an abort leaves it.  Local locks need no mark: an lcp
   upgrade is a node-local table call with no message. *)
let intent_key st seg = (st.coord.Ra.Node.id, seg)

let ensure_lock t st node seg kind =
  let needed =
    match (held_kind st seg, kind) with
    | Some P.W, _ -> None
    | Some P.R, P.R -> None
    | Some P.R, P.W ->
        if st.scope = Global then begin
          Hashtbl.replace t.write_intent (intent_key st seg) ();
          Sim.Stats.incr t.lock_upgrade_count
        end;
        Some P.W
    | None, P.R
      when st.scope = Global && Hashtbl.mem t.write_intent (intent_key st seg)
      ->
        Some P.W
    | None, k -> Some k
  in
  match needed with
  | None -> ()
  | Some kind -> (
      match st.scope with
      | Global -> acquire_global t st node seg kind
      | Local -> acquire_local t st node seg kind)

(* --- the MMU access hook ------------------------------------------- *)

let hook t node seg _page mode =
  match Hashtbl.find_opt t.by_pid (Sim.self ()) with
  | None -> ()
  | Some st ->
      if st.status <> Active then raise Txn_abort_signal;
      (* class code is read-only and shared: locking it would
         serialize unrelated transactions for no benefit *)
      if Cl.is_volatile t.cl node seg || Cl.is_code_segment t.cl seg then ()
      else begin
        match Clouds.Placement.mode t.cl.Cl.placement seg with
        | Ra.Partition.Commutative _ ->
            (* arbitration-free: no locks, no 2PC write set; the
               deltas merge at the home when the transaction commits
               (and survive an abort — merges are not undoable) *)
            if
              mode = Ra.Partition.Write
              && not
                   (List.exists
                      (fun (n, s) -> n == node && Ra.Sysname.equal s seg)
                      st.merge_segs)
            then st.merge_segs <- (node, seg) :: st.merge_segs
        | Ra.Partition.One_copy | Ra.Partition.Release ->
            if not (List.memq node st.nodes) then st.nodes <- node :: st.nodes;
            let kind =
              match mode with
              | Ra.Partition.Read -> P.R
              | Ra.Partition.Write -> P.W
            in
            if
              kind = P.W
              && not (List.exists (Ra.Sysname.equal seg) st.write_segs)
            then st.write_segs <- seg :: st.write_segs;
            ensure_lock t st node seg kind
      end

(* --- commit -------------------------------------------------------- *)

(* Collect the byte spans this transaction wrote, grouped by home
   data server, remembering where each frame lives for mark_clean. *)
let collect_writes t st =
  let by_home = Hashtbl.create 4 in
  let frames = ref [] in
  List.iter
    (fun node ->
      List.iter
        (fun seg ->
          let dirty = Ra.Mmu.dirty_spans node.Ra.Node.mmu seg in
          if dirty <> [] then begin
            let home = Clouds.Placement.locate t.cl.Cl.placement seg in
            let cell =
              match Hashtbl.find_opt by_home home with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.replace by_home home c;
                  c
            in
            List.iter
              (fun (page, data) ->
                cell := (seg, page, data) :: !cell;
                frames := (node, seg, page) :: !frames)
              dirty
          end)
        st.write_segs)
    st.nodes;
  let grouped =
    Hashtbl.fold (fun home cell acc -> (home, List.rev !cell) :: acc) by_home []
    |> List.sort (fun (a, _) (b, _) -> Net.Address.compare a b)
  in
  (grouped, !frames)

let mark_all_clean frames =
  List.iter
    (fun (node, seg, page) -> Ra.Mmu.mark_clean node.Ra.Node.mmu seg page)
    frames

(* Commutative segments ride outside the 2PC write set: their dirty
   pages become merge deltas shipped by the owning node's DSM client
   at the commit point. *)
let flush_merges t st =
  List.iter
    (fun (node, seg) ->
      match Cl.client_of t.cl node.Ra.Node.id with
      | Some client -> Dsm.Dsm_client.flush_segment client seg
      | None -> ())
    (List.rev st.merge_segs)

let commit t st =
  if st.status <> Active then raise Txn_abort_signal;
  let commit_start = Sim.now () in
  match st.scope with
  | Global ->
      let grouped, frames = collect_writes t st in
      let all_yes =
        Obs.Tracer.with_span "2pc.prepare" (fun () ->
            participant_rpcs st.coord
              (List.map
                 (fun (home, writes) ->
                   (home, P.Prepare { txn = st.txn; writes }))
                 grouped)
            |> List.for_all (fun vote ->
                   match vote with
                   | Ok (P.Vote true) -> true
                   | Ok _ | Error Ratp.Endpoint.Timeout -> false))
      in
      if not all_yes then begin
        st.status <- Rolling_back;
        raise Txn_abort_signal
      end;
      (* the commit point: participants that crash from here on learn
         the outcome from the coordinator at recovery *)
      Hashtbl.replace t.outcomes st.txn true;
      (* clean our frames NOW, while the locks are still held at the
         servers: once a Commit message releases a lock, a successor
         transaction may re-dirty these frames, and a later blanket
         mark_clean would silently discard its writes *)
      mark_all_clean frames;
      let involved =
        List.sort_uniq Net.Address.compare
          (List.map fst grouped @ st.lock_servers)
      in
      Obs.Tracer.with_span "2pc.commit" (fun () ->
          List.iter
            (fun r -> match r with Ok _ | Error Ratp.Endpoint.Timeout -> ())
            (participant_rpcs st.coord
               (List.map
                  (fun home -> (home, P.Commit { txn = st.txn }))
                  involved)));
      flush_merges t st;
      List.iter
        (fun (seg, kind) ->
          if
            kind = P.W && not (List.exists (Ra.Sysname.equal seg) st.write_segs)
          then Hashtbl.remove t.write_intent (intent_key st seg))
        st.locks;
      st.status <- Finished;
      Sim.Stats.hadd_span t.commit_hist
        (Sim.Time.diff (Sim.now ()) commit_start);
      Sim.Stats.incr t.commit_count
  | Local ->
      let grouped, frames = collect_writes t st in
      let msgs =
        List.map (fun (home, writes) -> (home, P.Put_spans writes)) grouped
      in
      Obs.Tracer.with_span "lcp.commit" (fun () ->
          List.iter
            (fun r ->
              match r with
              | Ok P.Batch_ok -> ()
              | Ok _ | Error Ratp.Endpoint.Timeout ->
                  st.status <- Rolling_back;
                  raise Txn_abort_signal)
            (participant_rpcs st.coord msgs));
      mark_all_clean frames;
      List.iter
        (fun node ->
          Dsm.Lock_table.release_txn (local_table t node.Ra.Node.id) st.txn)
        st.nodes;
      flush_merges t st;
      st.status <- Finished;
      Sim.Stats.hadd_span t.commit_hist
        (Sim.Time.diff (Sim.now ()) commit_start);
      Sim.Stats.incr t.commit_count

(* --- the entry wrapper --------------------------------------------- *)

let with_pid t st f =
  let pid = Sim.self () in
  match Hashtbl.find_opt t.by_pid pid with
  | Some existing when existing == st -> f ()
  | Some _ | None ->
      let previous = Hashtbl.find_opt t.by_pid pid in
      Hashtbl.replace t.by_pid pid st;
      Fun.protect
        ~finally:(fun () ->
          match previous with
          | Some prev -> Hashtbl.replace t.by_pid pid prev
          | None -> Hashtbl.remove t.by_pid pid)
        f

let run_txn t scope (ctx : Clouds.Ctx.t) body =
  let rec attempt n =
    let txn = Cl.fresh_txn t.cl ctx.Clouds.Ctx.node in
    let st =
      {
        txn;
        scope;
        thread_id = ctx.Clouds.Ctx.thread_id;
        coord = ctx.Clouds.Ctx.node;
        status = Active;
        locks = [];
        lock_servers = [];
        write_segs = [];
        merge_segs = [];
        nodes = [ ctx.Clouds.Ctx.node ];
        rolled = false;
      }
    in
    Hashtbl.replace t.txns txn st;
    ctx.Clouds.Ctx.txn <- Some txn;
    let cleanup () =
      ctx.Clouds.Ctx.txn <- None;
      Hashtbl.remove t.txns txn
    in
    let retry_or_fail () =
      if n < t.max_retries then begin
        Sim.Stats.incr t.retry_count;
        (* randomized exponential backoff to break repeated collisions *)
        let scale = 1 lsl min n 6 in
        Sim.sleep
          (Sim.Time.us
             (2000 * scale * (1 + Sim.Rng.int (Sim.Engine.rng t.cl.Cl.eng) 4)));
        attempt (n + 1)
      end
      else raise (Aborted "transaction retries exhausted")
    in
    match with_pid t st body with
    | v -> (
        match commit t st with
        | () ->
            cleanup ();
            v
        | exception Txn_abort_signal ->
            rollback t st;
            cleanup ();
            retry_or_fail ())
    | exception Txn_abort_signal ->
        rollback t st;
        cleanup ();
        retry_or_fail ()
    | exception e ->
        (* a user exception aborts the transaction and propagates *)
        rollback t st;
        cleanup ();
        raise e
  in
  attempt 1

let join_txn t st (ctx : Clouds.Ctx.t) body =
  if not (List.memq ctx.Clouds.Ctx.node st.nodes) then
    st.nodes <- ctx.Clouds.Ctx.node :: st.nodes;
  with_pid t st body

let wrapper t label (ctx : Clouds.Ctx.t) body =
  match ctx.Clouds.Ctx.txn with
  | Some txn -> (
      match Hashtbl.find_opt t.txns txn with
      | Some st -> join_txn t st ctx body
      | None -> body ())
  | None -> (
      match label with
      | Clouds.Obj_class.S -> body ()
      | Clouds.Obj_class.Gcp -> run_txn t Global ctx body
      | Clouds.Obj_class.Lcp -> run_txn t Local ctx body)

(* --- installation --------------------------------------------------- *)

let install om ?(deadlock_timeout = Sim.Time.sec 5) ?(max_retries = 3) () =
  let cl = Clouds.Object_manager.cluster om in
  let t =
    {
      om;
      cl;
      txns = Hashtbl.create 32;
      outcomes = Hashtbl.create 64;
      by_pid = Hashtbl.create 32;
      local_locks = Hashtbl.create 8;
      write_intent = Hashtbl.create 64;
      deadlock_timeout;
      max_retries;
      commit_count = Sim.Stats.counter "atomicity/commits";
      abort_count = Sim.Stats.counter "atomicity/aborts";
      retry_count = Sim.Stats.counter "atomicity/retries";
      lock_rpc_count = Sim.Stats.counter "atomicity/lock_rpcs";
      lock_upgrade_count = Sim.Stats.counter "atomicity/lock_upgrades";
      commit_hist = Sim.Stats.hist "atomicity/commit_ms";
    }
  in
  Array.iter
    (fun node ->
      Ra.Mmu.set_access_hook node.Ra.Node.mmu
        (Some (fun seg page mode -> hook t node seg page mode)))
    cl.Cl.compute_nodes;
  (* the outcome oracle each data server's participant consults
     ({!Dsm.Participant.set_oracle}).  It reads this machine's
     volatile outcome table, so it can answer only while the
     coordinator is up *)
  Array.iter
    (fun server ->
      Dsm.Participant.set_oracle (Dsm.Dsm_server.participant server)
        (fun txn ->
          let coordinator_alive =
            match Cl.node_by_id cl (fst txn) with
            | Some n -> n.Ra.Node.alive
            | None -> false
          in
          if not coordinator_alive then `Unknown
          else
            match Hashtbl.find_opt t.outcomes txn with
            | Some true -> `Committed
            | Some false -> `Aborted
            | None ->
                (* alive coordinator, no decision yet: if the
                   transaction is still running, the participant must
                   hold on; a transaction we never saw is presumed
                   abort *)
                if Hashtbl.mem t.txns txn then `Pending else `Unknown))
    cl.Cl.servers;
  Clouds.Object_manager.set_entry_wrapper om (fun label ctx body ->
      wrapper t label ctx body);
  t

let abort_thread t ~thread_id =
  let victims =
    Hashtbl.fold
      (fun _ st acc ->
        if st.thread_id = thread_id && st.status = Active then st :: acc
        else acc)
      t.txns []
  in
  List.iter
    (fun st ->
      rollback t st;
      Hashtbl.remove t.txns st.txn;
      let pids =
        Hashtbl.fold
          (fun pid s acc -> if s == st then pid :: acc else acc)
          t.by_pid []
      in
      List.iter (Hashtbl.remove t.by_pid) pids)
    victims
