(* Tests for heartbeat membership: the monitor's status machine and
   epoch discipline, failure-API strictness, view-driven recovery of
   DSM server suspicion and client location caches, and the
   kill-k-of-n reheal invariants of the membership experiment. *)

open Sim
module M = Membership.Monitor
module Cl = Clouds.Cluster
module Exp = Experiments.Membership

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let status_t : M.status Alcotest.testable =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with M.Alive -> "alive" | M.Suspect -> "suspect" | M.Dead -> "dead"))
    ( = )

let fast_ratp =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Time.ms 20;
    max_attempts = 3;
  }

(* Same tight detection bounds the membership experiment uses: beats
   every 10 ms, suspicion after 30 ms of silence, death after 80 ms. *)
let mon_config =
  { M.period = Time.ms 10; suspect_after = Time.ms 30; dead_after = Time.ms 80 }

(* ------------------------------------------------------------------ *)
(* Monitor state machine *)

(* A bare monitor over raw nodes: crash silences the heartbeat sender
   (it is not killed), the sweep escalates Alive -> Suspect -> Dead,
   and a restart's resumed beats rejoin the member. *)
let test_monitor_lifecycle () =
  Sim.exec ~seed:7 (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let host =
        Ra.Node.create ether ~id:3 ~kind:Ra.Node.Compute
          ~ratp_config:fast_ratp ()
      in
      let n1 =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:fast_ratp ()
      in
      let n2 =
        Ra.Node.create ether ~id:2 ~kind:Ra.Node.Data ~ratp_config:fast_ratp ()
      in
      let mon = M.create ~config:mon_config host in
      M.watch mon n1;
      M.watch mon n2;
      Fun.protect ~finally:(fun () -> M.stop mon) @@ fun () ->
      Sim.sleep (Time.ms 50);
      Alcotest.check status_t "n1 alive" M.Alive (M.status_of mon 1);
      Alcotest.check status_t "n2 alive" M.Alive (M.status_of mon 2);
      check_int "healthy cluster stays at epoch 0" 0 (M.epoch mon);
      check_bool "heartbeats flowing" true (M.heartbeats mon > 0);
      Ra.Node.crash n1;
      Sim.sleep (Time.ms 50);
      Alcotest.check status_t "silence raises suspicion" M.Suspect
        (M.status_of mon 1);
      check_bool "suspects stay usable" true (M.usable mon 1);
      check_bool "suspects are not dead" false (M.is_dead mon 1);
      Sim.sleep (Time.ms 60);
      Alcotest.check status_t "prolonged silence condemns" M.Dead
        (M.status_of mon 1);
      check_bool "dead nodes are unusable" false (M.usable mon 1);
      check_bool "death instant recorded" true (M.last_death mon 1 <> None);
      check_int "two transitions, two epochs" 2 (M.epoch mon);
      Alcotest.check status_t "bystander unaffected" M.Alive (M.status_of mon 2);
      Ra.Node.restart n1;
      Sim.sleep (Time.ms 30);
      Alcotest.check status_t "resumed beats rejoin the member" M.Alive
        (M.status_of mon 1);
      check_int "rejoin announces a fresh epoch" 3 (M.epoch mon);
      check_int "transitions match epochs" 3 (M.transitions mon);
      check_bool "death instant survives the rejoin" true
        (M.last_death mon 1 <> None))

(* Subscribers see every epoch bump, synchronously and in order, with
   the member's new status in the delivered view. *)
let test_monitor_subscribers () =
  Sim.exec ~seed:13 (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let host =
        Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute
          ~ratp_config:fast_ratp ()
      in
      let n1 =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:fast_ratp ()
      in
      let mon = M.create ~config:mon_config host in
      M.watch mon n1;
      Fun.protect ~finally:(fun () -> M.stop mon) @@ fun () ->
      let log = ref [] in
      M.subscribe mon (fun v ->
          let s =
            match List.find_opt (fun m -> m.M.addr = 1) v.M.members with
            | Some m -> m.M.status
            | None -> Alcotest.fail "watched member missing from view"
          in
          log := (v.M.epoch, s) :: !log);
      Sim.sleep (Time.ms 20);
      Ra.Node.crash n1;
      Sim.sleep (Time.ms 120);
      Alcotest.(check (list (pair int status_t)))
        "suspect then dead, one epoch each"
        [ (1, M.Suspect); (2, M.Dead) ]
        (List.rev !log))

(* The whole detection timeline is a pure function of the seed. *)
let test_monitor_determinism () =
  let run () =
    Sim.exec ~seed:11 (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let host =
          Ra.Node.create ether ~id:3 ~kind:Ra.Node.Compute
            ~ratp_config:fast_ratp ()
        in
        let n1 =
          Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:fast_ratp
            ()
        in
        let mon = M.create ~config:mon_config host in
        M.watch mon n1;
        Fun.protect ~finally:(fun () -> M.stop mon) @@ fun () ->
        Sim.sleep (Time.ms 40);
        Ra.Node.crash n1;
        Sim.sleep (Time.ms 120);
        let death =
          match M.last_death mon 1 with
          | Some t -> Time.to_ms_f (Time.diff t Time.zero)
          | None -> -1.0
        in
        (M.epoch mon, M.heartbeats mon, M.transitions mon, death))
  in
  let a = run () and b = run () in
  Alcotest.(check (pair (pair int int) (pair int (float 0.0))))
    "same seed, same timeline"
    (let e, h, tr, d = a in
     ((e, h), (tr, d)))
    (let e, h, tr, d = b in
     ((e, h), (tr, d)))

(* ------------------------------------------------------------------ *)
(* Failure API strictness *)

let test_crash_now_unknown () =
  Alcotest.check_raises "crash_now rejects unknown nodes"
    (Invalid_argument "Failure.crash_now: unknown node") (fun () ->
      Sim.exec ~seed:3 (fun () ->
          let eng = Sim.engine () in
          let sys =
            Clouds.boot eng ~ratp_config:fast_ratp ~compute:1 ~data:1
              ~workstations:0 ()
          in
          Pet.Failure.crash_now sys.Clouds.cluster 99))

(* [restart_at] resolves its target when the callback fires, exactly
   like [crash_at] — a typo'd address must raise, not silently no-op. *)
let test_restart_at_unknown_raises_at_fire_time () =
  Alcotest.check_raises "restart_at rejects unknown nodes at fire time"
    (Invalid_argument "Failure.restart_at: unknown node") (fun () ->
      Sim.exec ~seed:3 (fun () ->
          let eng = Sim.engine () in
          let sys =
            Clouds.boot eng ~ratp_config:fast_ratp ~compute:1 ~data:1
              ~workstations:0 ()
          in
          Pet.Failure.restart_at sys.Clouds.cluster 99 (Time.ms 10);
          Sim.sleep (Time.ms 50)))

(* ------------------------------------------------------------------ *)
(* View-driven DSM recovery *)

(* Regression: a DSM server used to suspect a client forever after one
   invalidation timeout, so a recovered machine never saw coherence
   traffic again.  With membership running, the rejoin view must clear
   the suspicion without the recovered client sending the server a
   single request. *)
let test_sticky_suspect_cleared_by_view () =
  Sim.exec ~seed:5 (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:fast_ratp ~compute:3 ~data:1
          ~workstations:0 ()
      in
      let cl = sys.Clouds.cluster in
      let mon = Cl.start_membership cl ~config:mon_config () in
      Fun.protect ~finally:(fun () -> Cl.stop_membership cl) @@ fun () ->
      let server = cl.Cl.servers.(0) in
      let seg = Ra.Sysname.fresh cl.Cl.data_nodes.(0).Ra.Node.names in
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg ~size:Ra.Page.size;
      Cl.add_segment cl seg 1;
      let vs = Ra.Virtual_space.create () in
      Ra.Virtual_space.map vs ~base:0 ~len:Ra.Page.size
        ~prot:Ra.Virtual_space.Read_write seg;
      (* the monitor lives on compute_nodes.(0); use the other two *)
      let reader = cl.Cl.compute_nodes.(1) in
      let writer = cl.Cl.compute_nodes.(2) in
      ignore (Ra.Mmu.read reader.Ra.Node.mmu vs ~addr:0 ~len:4);
      Ra.Node.crash reader;
      (* the write's invalidation fan-out to the dead reader times out
         and marks it suspect *)
      Ra.Mmu.write writer.Ra.Node.mmu vs ~addr:0 (Bytes.of_string "new!");
      check_bool "timed-out invalidation suspects the reader" true
        (List.mem reader.Ra.Node.id (Dsm.Dsm_server.suspected server));
      Ra.Node.restart reader;
      Sim.sleep (Time.ms 60);
      Alcotest.check status_t "monitor sees the rejoin" M.Alive
        (M.status_of mon reader.Ra.Node.id);
      Alcotest.(check (list int))
        "rejoin view clears the suspicion, no request needed" []
        (Dsm.Dsm_server.suspected server);
      (* coherence flows again: the crash wiped the reader's MMU, so
         this refaults through the server it was suspected by *)
      Alcotest.(check string) "recovered reader sees the write" "new!"
        (Bytes.to_string (Ra.Mmu.read reader.Ra.Node.mmu vs ~addr:0 ~len:4)))

(* A dead primary's cached locations are evicted by the view change
   and the very next fault resolves to the surviving backup — no RaTP
   retry ladder is burned rediscovering the failure. *)
let test_failover_evicts_stale_locations () =
  Sim.exec ~seed:9 (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:fast_ratp ~replication:2 ~compute:2
          ~data:2 ~workstations:0 ()
      in
      let cl = sys.Clouds.cluster in
      let mon = Cl.start_membership cl ~config:mon_config () in
      Fun.protect ~finally:(fun () -> Cl.stop_membership cl) @@ fun () ->
      let repl = Clouds.Replicator.install cl mon in
      let seg = Ra.Sysname.fresh cl.Cl.data_nodes.(0).Ra.Node.names in
      let targets = Cl.replica_targets cl ~primary:1 in
      List.iter
        (fun a ->
          match Cl.server_at cl a with
          | Some srv ->
              Store.Segment_store.create_segment
                (Dsm.Dsm_server.store srv)
                seg ~size:Ra.Page.size
          | None -> ())
        targets;
      Cl.set_replicas cl seg targets;
      let node = cl.Cl.compute_nodes.(1) in
      let client = cl.Cl.clients.(1) in
      let vs = Ra.Virtual_space.create () in
      Ra.Virtual_space.map vs ~base:0 ~len:Ra.Page.size
        ~prot:Ra.Virtual_space.Read_write seg;
      Ra.Mmu.write node.Ra.Node.mmu vs ~addr:0 (Bytes.of_string "live");
      Dsm.Dsm_client.flush_segment client seg;
      (* the acknowledged flush is already mirrored on the backup *)
      (match
         Store.Segment_store.read_page
           (Dsm.Dsm_server.store cl.Cl.servers.(1))
           seg 0
       with
      | Ra.Partition.Data b ->
          Alcotest.(check string)
            "backup mirrors the committed write" "live"
            (Bytes.sub_string b 0 4)
      | Ra.Partition.Zeroed -> Alcotest.fail "backup page never mirrored");
      let ev0 = Dsm.Dsm_client.location_evictions client in
      Ra.Node.crash cl.Cl.data_nodes.(0);
      Sim.sleep (Time.ms 150);
      check_bool "primary condemned" true (M.is_dead mon 1);
      check_bool "dead node's locations evicted eagerly" true
        (Dsm.Dsm_client.location_evictions client > ev0);
      check_int "segment failed over to the backup" 2 (Cl.locate_segment cl seg);
      Ra.Mmu.drop_segment node.Ra.Node.mmu seg;
      let t0 = Sim.now () in
      Alcotest.(check string) "backup serves the committed data" "live"
        (Bytes.to_string (Ra.Mmu.read node.Ra.Node.mmu vs ~addr:0 ~len:4));
      let ms = Time.to_ms_f (Time.diff (Sim.now ()) t0) in
      check_bool "failover read needs no timeout rediscovery" true (ms < 60.0);
      Clouds.Replicator.quiesce repl)

(* ------------------------------------------------------------------ *)
(* Kill k of n: reheal invariants *)

let run_single_arm arm ~ops =
  match Exp.run ~arms:[ arm ] ~ops () with
  | [ o ] -> o
  | _ -> Alcotest.fail "expected exactly one outcome"

(* Kill 1 of 3 data servers under replication 2: every acknowledged
   write survives on every current replica, the dead server's copies
   are re-created on a healthy peer, and the client-visible stall is
   bounded by detection plus one transport ladder. *)
let test_kill_one_of_three_reheals () =
  let o =
    run_single_arm { Exp.replication = 2; kills = 1; restart = false } ~ops:24
  in
  Alcotest.(check (list string)) "no invariant violations" [] o.Exp.violations;
  check_int "zero lost committed writes" 0 o.Exp.lost_writes;
  check_int "zero lost segments" 0 o.Exp.lost_segments;
  check_int "no operation exhausted its retries" 0 o.Exp.failed;
  check_int "every operation acknowledged" o.Exp.ops o.Exp.oks;
  check_bool "reheal copied the lost replica" true (o.Exp.pages_copied >= 16);
  check_bool "detection inside the configured window" true
    (o.Exp.detect_ms > 0.0 && o.Exp.detect_ms < 120.0);
  check_bool "unavailability bounded" true
    (o.Exp.unavail_ms > 0.0 && o.Exp.unavail_ms < 600.0);
  check_bool "reheal completed after detection" true
    (o.Exp.reheal_ms >= o.Exp.detect_ms);
  check_bool "view advanced through suspect and dead" true
    (o.Exp.final_epoch >= 2)

(* Replication 1 with a restarting victim: the stable store survives
   the crash, so the replicator re-adopts the segment instead of
   declaring it lost, and no acknowledged write disappears. *)
let test_restart_readopts_lost_segment () =
  let o =
    run_single_arm { Exp.replication = 1; kills = 1; restart = true } ~ops:24
  in
  Alcotest.(check (list string)) "no invariant violations" [] o.Exp.violations;
  check_bool "victim was restarted" true o.Exp.restarted;
  check_int "segment re-adopted, not lost" 0 o.Exp.lost_segments;
  check_int "zero lost committed writes" 0 o.Exp.lost_writes;
  check_int "no operation exhausted its retries" 0 o.Exp.failed

(* Same (arm, seed) pair, same trace — byte for byte. *)
let test_reheal_determinism () =
  let go () = Exp.run ~arms:Exp.quick_arms ~ops:24 () |> List.map Exp.summary in
  Alcotest.(check (list string)) "reheal traces reproduce" (go ()) (go ())

let () =
  Alcotest.run "membership"
    [
      ( "monitor",
        [
          Alcotest.test_case "lifecycle" `Quick test_monitor_lifecycle;
          Alcotest.test_case "subscribers" `Quick test_monitor_subscribers;
          Alcotest.test_case "determinism" `Quick test_monitor_determinism;
        ] );
      ( "failure-api",
        [
          Alcotest.test_case "crash_now unknown" `Quick test_crash_now_unknown;
          Alcotest.test_case "restart_at unknown fires" `Quick
            test_restart_at_unknown_raises_at_fire_time;
        ] );
      ( "dsm-views",
        [
          Alcotest.test_case "sticky suspect cleared" `Quick
            test_sticky_suspect_cleared_by_view;
          Alcotest.test_case "failover evicts locations" `Quick
            test_failover_evicts_stale_locations;
        ] );
      ( "reheal",
        [
          Alcotest.test_case "kill 1 of 3" `Quick test_kill_one_of_three_reheals;
          Alcotest.test_case "restart readopts" `Quick
            test_restart_readopts_lost_segment;
          Alcotest.test_case "determinism" `Quick test_reheal_determinism;
        ] );
    ]
