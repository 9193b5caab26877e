(* Group-commit / WAL pipeline experiments.

   Part A is a closed-loop write-heavy grid: [clients] concurrent
   sessions each run [txns_per_client] gcp transactions, every
   transaction crediting the session's own [footprint] accounts
   (spread round-robin over the data servers, so a footprint > 1
   transaction is a real multi-participant 2PC).  The same cell runs
   with the WAL's group-commit daemon off (the historical
   force-per-record commit path: every prepare and commit record pays
   its own seek) or on with a given window (records ride batched
   sequential appends; locks release at commit-record-in-buffer and
   the ack rides the flush).  Durability is identical in both arms —
   a client is acked only once its commit record is on disk — so the
   throughput ratio is pure pipeline.

   Accounts are private to their session, so the grid measures the
   log bottleneck, not lock contention: every arm's transactions are
   conflict-free and the only shared resource is the per-server disk.

   Part B is the deterministic crash-recovery scenario the acceptance
   test replays: deposits flowing through the group-commit pipeline,
   one data server killed mid-workload after a fuzzy checkpoint, then
   restarted through ARIES recovery on the truncated log.  Every
   session owns one account on the victim and one on the survivor, so
   each acked transaction must have credited both — zero lost
   committed writes, zero ghost writes — which the outcome record
   checks exactly. *)

module Cl = Clouds.Cluster
module V = Clouds.Value

type cell = {
  label : string;
  data : int;
  compute : int;
  clients : int;
  footprint : int;  (** accounts credited per transaction *)
  txns_per_client : int;
  window : Sim.Time.span option;  (** [None] = group commit off *)
  checkpoint_every : Sim.Time.span option;
}

type point = {
  cell : cell;
  committed : int;
  retries : int;
  p50_ms : float;
  p95_ms : float;
  mean_ms : float;
  throughput : float;  (** commits per simulated second *)
  wal_records : int;  (** log records written, all servers *)
  wal_flushes : int;  (** group flushes (0 with the daemon off) *)
  mean_batch : float;  (** records per group flush *)
  lock_rpcs_per_txn : float;  (** global lock requests per commit *)
  lock_upgrades_per_txn : float;  (** of which R-to-W upgrades *)
  sim_ms : float;
  wall_s : float;
}

let cell ~label ?(data = 4) ?(compute = 4) ~clients ~footprint
    ~txns_per_client ?window ?checkpoint_every () =
  {
    label;
    data;
    compute;
    clients;
    footprint;
    txns_per_client;
    window;
    checkpoint_every;
  }

(* The A/B pair the acceptance test compares: the same 64-session
   write-heavy load against the force-per-record path and a 5 ms
   group-commit window, one data server so the log disk is the only
   contended stage (each session has its own compute server — at the
   default invocation costs a shared CPU saturates long before the
   disk and would mask the pipeline). *)
let smoke_cells =
  [
    cell ~label:"c64-fp1-off" ~data:1 ~compute:64 ~clients:64 ~footprint:1
      ~txns_per_client:12 ();
    cell ~label:"c64-fp1-w5" ~data:1 ~compute:64 ~clients:64 ~footprint:1
      ~txns_per_client:12 ~window:(Sim.Time.ms 5) ();
  ]

(* clients x window x footprint, CI-sized counts per cell.  One
   compute server per session keeps the CPU stage parallel;
   footprint > 1 spreads each transaction's accounts over four data
   servers, so those cells are true multi-participant 2PCs. *)
let grid_cells =
  List.concat_map
    (fun clients ->
      List.concat_map
        (fun footprint ->
          List.map
            (fun (tag, window) ->
              {
                label = Printf.sprintf "c%d-fp%d-%s" clients footprint tag;
                data = (if footprint = 1 then 1 else 4);
                compute = clients;
                clients;
                footprint;
                txns_per_client = 12;
                window;
                checkpoint_every = None;
              })
            [
              ("off", None);
              ("w1", Some (Sim.Time.ms 1));
              ("w5", Some (Sim.Time.ms 5));
            ])
        [ 1; 4; 8 ])
    [ 1; 4; 16; 64 ]

let full_cells = grid_cells

(* Each session gets its own batcher object so sessions share nothing
   but the disks. *)
let batcher_cls = Fixtures.batcher_cls "commit-batcher"

let run_cell ?(seed = 42) (c : cell) =
  let wall0 = Unix.gettimeofday () in
  let lat, retries, sim_ms, wal_records, wal_flushes, mean_batch, locks =
    Sim.exec ~seed (fun () ->
        let eng = Sim.engine () in
        let sys =
          Clouds.boot eng ~ether_config:Fixtures.ether_1g
            ?group_commit_window:c.window
            ?checkpoint_every:c.checkpoint_every ~compute:c.compute
            ~data:c.data ~workstations:0 ()
        in
        let cl = sys.Clouds.cluster in
        let om = sys.Clouds.om in
        let mgr = Atomicity.Manager.install om () in
        let lock_counts () =
          let count = Obs.Registry.count (Atomicity.Manager.metrics mgr) in
          (count "atomicity/lock_rpcs", count "atomicity/lock_upgrades")
        in
        Apps.Bank.register om;
        Cl.register_class cl batcher_cls;
        let ncomp = Array.length cl.Cl.compute_nodes in
        let sessions =
          Array.init c.clients (fun i ->
              let accounts =
                List.init c.footprint (fun j ->
                    Apps.Bank.open_account om
                      ~home:(1 + (((i * c.footprint) + j) mod c.data))
                      ~balance:0 ())
              in
              let batcher =
                Clouds.Object_manager.create_object om
                  ~class_name:"commit-batcher" V.Unit
              in
              let arg = V.List (List.map V.of_sysname accounts) in
              (cl.Cl.compute_nodes.(i mod ncomp), batcher, arg))
        in
        let lat = Sim.Stats.hist "commit/latency_ms" in
        let retries = ref 0 in
        let warmed = ref 0 in
        let finished = ref 0 in
        let go_ivar = Sim.Ivar.create () in
        let locks_at_go = ref (0, 0) in
        let done_ivar = Sim.Ivar.create () in
        Array.iteri
          (fun i (node, batcher, arg) ->
            ignore
              (Sim.Engine.spawn eng
                 (Printf.sprintf "commit-client-%d" i)
                 (fun () ->
                   let txn () =
                     Fixtures.with_retry ~retries (fun () ->
                         ignore
                           (Clouds.Object_manager.invoke om ~node ~thread_id:0
                              ~origin:None ~txn:None ~obj:batcher
                              ~entry:"update_all" arg))
                   in
                   (* unmeasured warm transaction: first touches pay
                      cold-segment disk reads, activation setup and
                      code-page faults that belong to boot, not to the
                      commit pipeline under test; stagger the starts
                      so the warm faults do not convoy either *)
                   Sim.sleep (Sim.Time.us (i * 3100));
                   txn ();
                   incr warmed;
                   if !warmed = c.clients then begin
                     locks_at_go := lock_counts ();
                     Sim.Ivar.fill go_ivar (Sim.now ())
                   end;
                   let t_start = Sim.Ivar.read go_ivar in
                   for _ = 1 to c.txns_per_client do
                     let t0 = Sim.now () in
                     txn ();
                     Sim.Stats.hadd_span lat (Sim.Time.diff (Sim.now ()) t0)
                   done;
                   incr finished;
                   if !finished = c.clients then
                     Sim.Ivar.fill done_ivar
                       (Sim.Time.to_ms_f
                          (Sim.Time.diff (Sim.now ()) t_start)))))
          sessions;
        let sim_ms = Sim.Ivar.read done_ivar in
        let wal s = Dsm.Participant.metrics (Dsm.Dsm_server.participant s) in
        let sum path =
          Array.fold_left
            (fun acc s -> acc + Obs.Registry.count (wal s) path)
            0 cl.Cl.servers
        in
        let records = sum "wal/records" in
        let flushes = sum "wal/flushes" in
        let batched =
          Array.fold_left
            (fun acc s ->
              acc
              +. Sim.Stats.hist_total
                   (Obs.Registry.hist (wal s) "wal/flush_batch"))
            0.0 cl.Cl.servers
        in
        let mean_batch =
          if flushes = 0 then 0.0 else batched /. float_of_int flushes
        in
        let locks =
          let rpcs, upgrades = lock_counts () in
          (rpcs - fst !locks_at_go, upgrades - snd !locks_at_go)
        in
        (lat, !retries, sim_ms, records, flushes, mean_batch, locks))
  in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let per_txn n = float_of_int n /. float_of_int (Sim.Stats.hist_n lat) in
  {
    cell = c;
    committed = Sim.Stats.hist_n lat;
    retries;
    p50_ms = Sim.Stats.hist_percentile lat 50.0;
    p95_ms = Sim.Stats.hist_percentile lat 95.0;
    mean_ms = Sim.Stats.hist_mean lat;
    throughput = float_of_int (Sim.Stats.hist_n lat) /. (sim_ms /. 1000.0);
    wal_records;
    wal_flushes;
    mean_batch;
    lock_rpcs_per_txn = per_txn (fst locks);
    lock_upgrades_per_txn = per_txn (snd locks);
    sim_ms;
    wall_s;
  }

let run ?(seed = 42) ?(cells = smoke_cells) () =
  List.map (run_cell ~seed) cells

(* ------------------------------------------------------------------ *)
(* Part B: kill a data server mid-commit-pipeline, recover through the
   truncated log. *)

type crash_outcome = {
  seed : int;
  sessions : int;
  deposits_per_session : int;
  acked : int;  (** transactions acknowledged committed *)
  crash_retries : int;
  lost : int;  (** acked credits missing from recovered balances *)
  ghosts : int;  (** balance credits never acknowledged *)
  checkpoints : int;  (** fuzzy checkpoints cut on the victim *)
  log_truncated : int;  (** records dropped at checkpoint low-water marks *)
  recovered_records : int;  (** victim's log length at verification *)
  violations : string list;
  trace : string;  (** canonical per-session trace, determinism check *)
}

let run_crash ?(seed = 42) () =
  let sessions = 4 and deposits = 40 in
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:Fixtures.fast_ratp
          ~group_commit_window:(Sim.Time.ms 2)
          ~checkpoint_every:(Sim.Time.ms 25) ~compute:3 ~data:2 ~workstations:0
          ()
      in
      let cl = sys.Clouds.cluster in
      let om = sys.Clouds.om in
      let (_ : Atomicity.Manager.t) =
        Atomicity.Manager.install om ~deadlock_timeout:(Sim.Time.ms 300)
          ~max_retries:8 ()
      in
      Apps.Bank.register om;
      Cl.register_class cl batcher_cls;
      let ncomp = Array.length cl.Cl.compute_nodes in
      (* each session owns one account on the victim (server 1) and
         one on the survivor (server 2): every transaction is a
         two-participant 2PC, and no account has two writers, so the
         recovered balances must equal the ack counts exactly *)
      let plans =
        Array.init sessions (fun i ->
            let a = Apps.Bank.open_account om ~home:1 ~balance:0 () in
            let b = Apps.Bank.open_account om ~home:2 ~balance:0 () in
            let batcher =
              Clouds.Object_manager.create_object om
                ~class_name:"commit-batcher" V.Unit
            in
            ( cl.Cl.compute_nodes.(i mod ncomp),
              batcher,
              V.List [ V.of_sysname a; V.of_sysname b ],
              a,
              b ))
      in
      let acked = Array.make sessions 0 in
      let retries = ref 0 in
      let finished = ref 0 in
      let done_ivar = Sim.Ivar.create () in
      Array.iteri
        (fun i (node, batcher, arg, _, _) ->
          ignore
            (Sim.Engine.spawn eng
               (Printf.sprintf "crash-client-%d" i)
               (fun () ->
                 for _ = 1 to deposits do
                   Fixtures.with_retry ~retries (fun () ->
                       ignore
                         (Clouds.Object_manager.invoke om ~node ~thread_id:0
                            ~origin:None ~txn:None ~obj:batcher
                            ~entry:"update_all" arg));
                   acked.(i) <- acked.(i) + 1
                 done;
                 incr finished;
                 if !finished = sessions then Sim.Ivar.fill done_ivar ())))
        plans;
      (* the kill lands mid-workload, after the 25 ms checkpoint
         cadence has cut at least one fuzzy checkpoint; the restart
         runs Dsm_server.recover on the truncated log *)
      Pet.Failure.crash_at cl 1 (Sim.Time.ms 150);
      Pet.Failure.restart_at cl 1 (Sim.Time.ms 450);
      Sim.Ivar.read done_ivar;
      (* drain any commit still riding the last group flush *)
      Sim.sleep (Sim.Time.ms 50);
      let victim_wal =
        Dsm.Participant.wal (Dsm.Dsm_server.participant cl.Cl.servers.(0))
      in
      let wal_metrics = Store.Wal.metrics victim_wal in
      let checkpoints = Obs.Registry.count wal_metrics "wal/checkpoints" in
      let log_truncated = Obs.Registry.count wal_metrics "wal/truncated" in
      let recovered_records = List.length (Store.Wal.records victim_wal) in
      let lost = ref 0 and ghosts = ref 0 in
      let buf = Buffer.create 64 in
      Array.iteri
        (fun i (_, _, _, a, b) ->
          let bal_a = Apps.Bank.balance om a in
          let bal_b = Apps.Bank.balance om b in
          List.iter
            (fun bal ->
              if bal < acked.(i) then lost := !lost + (acked.(i) - bal);
              if bal > acked.(i) then ghosts := !ghosts + (bal - acked.(i)))
            [ bal_a; bal_b ];
          Buffer.add_string buf
            (Printf.sprintf "%s%d:%d/%d"
               (if i = 0 then "" else ",")
               acked.(i) bal_a bal_b))
        plans;
      let violations = ref [] in
      let violate fmt =
        Printf.ksprintf (fun s -> violations := s :: !violations) fmt
      in
      if !lost > 0 then
        violate "%d acknowledged credits lost across the crash" !lost;
      if !ghosts > 0 then
        violate "%d credits present that were never acknowledged" !ghosts;
      if Array.exists (fun a -> a < deposits) acked then
        violate "a session gave up before finishing its deposits";
      if checkpoints < 1 then
        violate "no fuzzy checkpoint was cut before the crash";
      if log_truncated < 1 then
        violate "checkpoints cut but the log was never truncated";
      {
        seed;
        sessions;
        deposits_per_session = deposits;
        acked = Array.fold_left ( + ) 0 acked;
        crash_retries = !retries;
        lost = !lost;
        ghosts = !ghosts;
        checkpoints;
        log_truncated;
        recovered_records;
        violations = List.rev !violations;
        trace = Buffer.contents buf;
      })

(* The A/B points plus the crash scenario; simulated metrics only. *)
let to_json points (o : crash_outcome) =
  let open Obs.Export in
  let int i = int i in
  let point (p : point) =
    Obj
      [
        ("label", Str p.cell.label); ("clients", int p.cell.clients);
        ("footprint", int p.cell.footprint);
        ( "window_ms",
          match p.cell.window with
          | None -> Null
          | Some w -> Num (Sim.Time.to_ms_f w) );
        ("committed", int p.committed); ("retries", int p.retries);
        ("p50_ms", Num p.p50_ms); ("p95_ms", Num p.p95_ms);
        ("mean_ms", Num p.mean_ms); ("throughput", Num p.throughput);
        ("wal_records", int p.wal_records); ("wal_flushes", int p.wal_flushes);
        ("mean_batch", Num p.mean_batch);
        ("lock_rpcs_per_txn", Num p.lock_rpcs_per_txn);
        ("lock_upgrades_per_txn", Num p.lock_upgrades_per_txn);
        ("sim_ms", Num p.sim_ms);
      ]
  in
  Obj
    [
      ("cells", Arr (List.map point points));
      ( "crash",
        Obj
          [
            ("seed", int o.seed); ("sessions", int o.sessions);
            ("deposits_per_session", int o.deposits_per_session);
            ("acked", int o.acked); ("crash_retries", int o.crash_retries);
            ("lost", int o.lost); ("ghosts", int o.ghosts);
            ("checkpoints", int o.checkpoints);
            ("log_truncated", int o.log_truncated);
            ("recovered_records", int o.recovered_records);
            ("violations", Arr (List.map (fun v -> Str v) o.violations));
            ("trace", Str o.trace);
          ] );
    ]
