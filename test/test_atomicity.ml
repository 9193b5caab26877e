(* Tests for consistency-preserving threads: automatic locking,
   commit/abort/recovery, isolation, deadlock breaking, and the
   s / lcp / gcp semantics of §5.2.1. *)

open Sim
open Clouds

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let atomicity mgr path =
  Obs.Registry.count (Atomicity.Manager.metrics mgr) path

(* A data server's 2PC participant: its log, and the transactions it
   still holds prepared. *)
let wal server = Dsm.Participant.wal (Dsm.Dsm_server.participant server)

let check_none_in_doubt label cluster =
  Array.iteri
    (fun i server ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s: nothing in doubt on server %d" label (i + 1))
        []
        (Dsm.Participant.in_doubt (Dsm.Dsm_server.participant server)))
    cluster.Cluster.servers

(* A bank account: balance in the first persistent data word. *)
let account =
  let get ctx = Memory.get_int ctx.Ctx.mem 0 in
  let set ctx v = Memory.set_int ctx.Ctx.mem 0 v in
  let deposit ctx arg =
    let v = get ctx in
    ctx.Ctx.compute (Time.us 200);
    set ctx (v + Value.to_int arg);
    Value.Int (v + Value.to_int arg)
  in
  Obj_class.define ~name:"account"
    [
      Obj_class.entry ~label:Obj_class.Gcp "deposit" deposit;
      Obj_class.entry ~label:Obj_class.Lcp "deposit_lcp" deposit;
      Obj_class.entry ~label:Obj_class.S "deposit_s" deposit;
      Obj_class.entry ~label:Obj_class.Gcp "balance_gcp" (fun ctx _ ->
          Value.Int (get ctx));
      Obj_class.entry ~label:Obj_class.Gcp "balance_slow" (fun ctx _ ->
          let v = get ctx in
          Sim.sleep (Time.ms 500);
          Value.Int v);
      Obj_class.entry ~label:Obj_class.S "balance" (fun ctx _ ->
          Value.Int (get ctx));
      Obj_class.entry ~label:Obj_class.Gcp "deposit_then_fail" (fun ctx arg ->
          set ctx (get ctx + Value.to_int arg);
          failwith "induced failure");
      (* join the ambient transaction when called from another entry *)
      Obj_class.entry ~label:Obj_class.S "add_in_txn" (fun ctx arg ->
          set ctx (get ctx + Value.to_int arg);
          Value.Unit);
      Obj_class.entry ~label:Obj_class.S "touch" (fun ctx _ ->
          set ctx (get ctx + 1);
          Value.Unit);
    ]

let transfer_cls =
  Obj_class.define ~name:"transfer"
    [
      Obj_class.entry ~label:Obj_class.Gcp "transfer" (fun ctx arg ->
          match Value.to_list arg with
          | [ from_v; to_v; amt ] ->
              let amount = Value.to_int amt in
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname from_v)
                   ~entry:"add_in_txn"
                   (Value.Int (-amount)));
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname to_v) ~entry:"add_in_txn"
                   (Value.Int amount));
              Value.Unit
          | _ -> invalid_arg "transfer");
      Obj_class.entry ~label:Obj_class.Gcp "transfer_fail" (fun ctx arg ->
          match Value.to_list arg with
          | [ from_v; to_v; amt ] ->
              let amount = Value.to_int amt in
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname from_v)
                   ~entry:"add_in_txn"
                   (Value.Int (-amount)));
              ignore
                (ctx.Ctx.invoke ~obj:(Value.to_sysname to_v) ~entry:"add_in_txn"
                   (Value.Int amount));
              failwith "crash after both updates";
          | _ -> invalid_arg "transfer");
      Obj_class.entry ~label:Obj_class.Gcp "lock_two" (fun ctx arg ->
          let a, b = Value.to_pair arg in
          ignore (ctx.Ctx.invoke ~obj:(Value.to_sysname a) ~entry:"touch" Value.Unit);
          ctx.Ctx.compute (Time.ms 20);
          ignore (ctx.Ctx.invoke ~obj:(Value.to_sysname b) ~entry:"touch" Value.Unit);
          Value.Unit);
    ]

type env = {
  sys : Clouds.system;
  mgr : Atomicity.Manager.t;
}

let lock_rpcs env = atomicity env.mgr "atomicity/lock_rpcs"
let lock_upgrades env = atomicity env.mgr "atomicity/lock_upgrades"

(* Fast transport so crash-related timeouts stay small. *)
let fast_ratp =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Time.ms 20;
    max_attempts = 3;
  }

let with_env ?(compute = 2) ?(data = 2) ?(deadlock_timeout = Time.ms 300)
    ?(max_retries = 10) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:fast_ratp ~compute ~data ~workstations:1 ()
      in
      let mgr =
        Atomicity.Manager.install sys.om ~deadlock_timeout ~max_retries ()
      in
      Cluster.register_class sys.cluster account;
      Cluster.register_class sys.cluster transfer_cls;
      f { sys; mgr })

let direct env ?(node = env.sys.cluster.Cluster.compute_nodes.(0))
    ?(thread_id = 0) obj entry arg =
  Object_manager.invoke env.sys.om ~node ~thread_id ~origin:None ~txn:None ~obj
    ~entry arg

(* Read the account's balance straight from its data server's stable
   store (what survives crashes). *)
let stored_balance env obj =
  let home =
    Option.get (Placement.home env.sys.cluster.Cluster.placement obj)
  in
  match Cluster.server_at env.sys.cluster home with
  | None -> Alcotest.fail "no server"
  | Some server -> (
      match Store.Directory.lookup (Dsm.Dsm_server.directory server) obj with
      | None -> Alcotest.fail "no descriptor"
      | Some desc -> (
          let data_seg =
            List.find
              (fun e -> String.equal e.Store.Directory.role "data")
              desc.Store.Directory.entries
          in
          match
            Store.Segment_store.read_page (Dsm.Dsm_server.store server)
              data_seg.Store.Directory.seg 0
          with
          | Ra.Partition.Zeroed -> 0
          | Ra.Partition.Data b -> Int64.to_int (Bytes.get_int64_le b 0)))

(* ------------------------------------------------------------------ *)

let test_gcp_commit_is_durable () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      check_int "reply" 100 (Value.to_int (direct env acct "deposit" (Value.Int 100)));
      (* committed state reached stable storage *)
      check_int "stored" 100 (stored_balance env acct);
      check_int "one commit" 1 (atomicity env.mgr "atomicity/commits");
      (* the deposit read, then upgraded: R and W, two lock requests *)
      check_int "R then W" 2 (lock_rpcs env);
      check_int "one upgrade" 1 (lock_upgrades env);
      (* the upgrade marked the segment on node 0 only: node 1's first
         deposit still pays R then W *)
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      ignore (direct env ~node:n1 acct "deposit" (Value.Int 1));
      check_int "node 1 pays R then W" 4 (lock_rpcs env);
      check_int "node 1 upgrades" 2 (lock_upgrades env);
      ignore (direct env ~node:n0 acct "deposit" (Value.Int 1));
      check_int "node 0 takes W at once" 5 (lock_rpcs env);
      check_int "no third upgrade" 2 (lock_upgrades env);
      check_int "stored after three" 102 (stored_balance env acct))

(* The deadlock watchdog and the participants' presumed-abort timers
   only matter while the transaction is undecided: once it commits
   they must leave the event queue, not sit in it for up to a minute.
   The RaTP reply caches of the commit's calls are acked too, so a
   quiet cluster has nothing left to do. *)
let test_commit_leaves_no_watchdog () =
  with_env ~deadlock_timeout:(Time.sec 30) (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      ignore (direct env acct "deposit" (Value.Int 100));
      check_int "one commit" 1 (atomicity env.mgr "atomicity/commits");
      Sim.sleep (Time.sec 1);
      check_int "nothing pending after the commit" 0
        (Engine.pending (Sim.engine ())))

let test_s_thread_update_is_volatile () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      check_int "reply" 50
        (Value.to_int (direct env ~node:n0 acct "deposit_s" (Value.Int 50)));
      (* no commit: stable store still has the old value *)
      check_int "store unchanged" 0 (stored_balance env acct);
      (* and a compute-server crash loses the update entirely *)
      Ra.Node.crash n0;
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      check_int "lost after crash" 0
        (Value.to_int (direct env ~node:n1 acct "balance" Value.Unit)))

let test_gcp_survives_compute_crash () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      ignore (direct env ~node:n0 acct "deposit" (Value.Int 70));
      Ra.Node.crash n0;
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      check_int "survives" 70
        (Value.to_int (direct env ~node:n1 acct "balance" Value.Unit)))

let test_user_exception_rolls_back () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      ignore (direct env acct "deposit" (Value.Int 10));
      (try ignore (direct env acct "deposit_then_fail" (Value.Int 5))
       with Failure _ -> ());
      check_int "rolled back" 10
        (Value.to_int (direct env acct "balance" Value.Unit));
      check_int "stored rolled back" 10 (stored_balance env acct);
      check_bool "an abort happened" true
        (atomicity env.mgr "atomicity/aborts" >= 1);
      (* the first deposit's upgrade marked the segment, so the failed
         one took W at once; its abort left the mark, so the next
         deposit takes W at once too *)
      check_int "R, W, then W" 3 (lock_rpcs env);
      ignore (direct env acct "deposit" (Value.Int 1));
      check_int "W at once after the abort" 4 (lock_rpcs env);
      check_int "only the first deposit upgraded" 1 (lock_upgrades env))

let test_multi_object_transfer_atomic () =
  with_env (fun env ->
      (* two accounts, placed on different data servers *)
      let a =
        Object_manager.create_object env.sys.om ~home:1 ~class_name:"account" Value.Unit
      in
      let b =
        Object_manager.create_object env.sys.om ~home:2 ~class_name:"account" Value.Unit
      in
      let xfer = Object_manager.create_object env.sys.om ~class_name:"transfer" Value.Unit in
      ignore (direct env a "deposit" (Value.Int 100));
      ignore
        (direct env xfer "transfer"
           (Value.List [ Value.of_sysname a; Value.of_sysname b; Value.Int 30 ]));
      check_int "debited" 70 (Value.to_int (direct env a "balance" Value.Unit));
      check_int "credited" 30 (Value.to_int (direct env b "balance" Value.Unit));
      check_int "stored debit" 70 (stored_balance env a);
      check_int "stored credit" 30 (stored_balance env b))

let test_failed_transfer_rolls_back_both () =
  with_env (fun env ->
      let a =
        Object_manager.create_object env.sys.om ~home:1 ~class_name:"account" Value.Unit
      in
      let b =
        Object_manager.create_object env.sys.om ~home:2 ~class_name:"account" Value.Unit
      in
      let xfer = Object_manager.create_object env.sys.om ~class_name:"transfer" Value.Unit in
      ignore (direct env a "deposit" (Value.Int 100));
      (try
         ignore
           (direct env xfer "transfer_fail"
              (Value.List [ Value.of_sysname a; Value.of_sysname b; Value.Int 30 ]))
       with Failure _ -> ());
      check_int "a unchanged" 100 (Value.to_int (direct env a "balance" Value.Unit));
      check_int "b unchanged" 0 (Value.to_int (direct env b "balance" Value.Unit));
      check_int "stored a" 100 (stored_balance env a);
      check_int "stored b" 0 (stored_balance env b))

let test_gcp_isolation_no_lost_updates () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let threads =
        List.init 5 (fun _ ->
            Thread.start env.sys.om ~obj:acct ~entry:"deposit" (Value.Int 1))
      in
      List.iter
        (fun th ->
          match Thread.try_join th with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "deposit thread failed: %s" (Printexc.to_string e))
        threads;
      check_int "serialized increments" 5
        (Value.to_int (direct env acct "balance" Value.Unit)))

let test_lcp_local_consistency () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let rpcs_before = atomicity env.mgr "atomicity/lock_rpcs" in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      let node_addr = n0.Ra.Node.id in
      let threads =
        List.init 5 (fun _ ->
            Thread.start env.sys.om ~on:node_addr ~obj:acct ~entry:"deposit_lcp"
              (Value.Int 1))
      in
      List.iter (fun th -> ignore (Thread.join th)) threads;
      check_int "serialized on the node" 5
        (Value.to_int (direct env ~node:n0 acct "balance" Value.Unit));
      (* lcp commits reached the store without any global lock rpcs *)
      check_int "no lock rpcs" rpcs_before
        (atomicity env.mgr "atomicity/lock_rpcs");
      check_int "stored" 5 (stored_balance env acct))

(* A local commit ships the bytes it wrote, not the page: on a warm
   page the second deposit's commit carries one 8-byte span. *)
let test_lcp_commit_ships_spans () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      let deposit () =
        ignore
          (Thread.join
             (Thread.start env.sys.om ~on:n0.Ra.Node.id ~obj:acct
                ~entry:"deposit_lcp" (Value.Int 1)))
      in
      deposit ();
      let ether = env.sys.cluster.Cluster.ether in
      let before = Net.Ethernet.bytes_sent ether in
      deposit ();
      let sent = Net.Ethernet.bytes_sent ether - before in
      check_bool
        (Printf.sprintf "warm lcp deposit sent %d B, under 1 KB" sent)
        true (sent < 1024);
      check_int "stored" 2 (stored_balance env acct))

let test_read_only_gcp_releases_locks () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      check_int "read only" 0
        (Value.to_int (direct env acct "balance_gcp" Value.Unit));
      (* if the read locks leaked, this write transaction would abort *)
      check_int "write after read-only txn" 5
        (Value.to_int (direct env acct "deposit" (Value.Int 5)));
      (* the deposit upgraded, marking the segment on node 0: the next
         read-only transaction there takes W, and since it wrote
         nothing its commit clears the mark *)
      let rpcs = lock_rpcs env in
      check_int "read under the mark" 5
        (Value.to_int (direct env acct "balance_gcp" Value.Unit));
      check_int "one lock request" (rpcs + 1) (lock_rpcs env);
      check_int "no upgrade" 1 (lock_upgrades env);
      (* so the one after asks for R again: it shares the segment with
         a reader on node 1 instead of waiting for it *)
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      let reader =
        Thread.start env.sys.om ~on:n1.Ra.Node.id ~obj:acct
          ~entry:"balance_slow" Value.Unit
      in
      Sim.sleep (Time.ms 100);
      let retries = atomicity env.mgr "atomicity/retries" in
      let t0 = Sim.now () in
      check_int "read beside a reader" 5
        (Value.to_int (direct env acct "balance_gcp" Value.Unit));
      check_bool "did not wait for the other reader" true
        (Time.diff (Sim.now ()) t0 < Time.ms 200);
      check_int "no retry" retries (atomicity env.mgr "atomicity/retries");
      ignore (Thread.join reader))

(* A transaction's dirty frame is recalled mid-transaction (an
   s-thread on another machine reads the page, so the home downgrades
   the writer and stores its bytes) and then refetched by the next
   write.  The recall made the frame clean, so the prepare carries
   only the bytes written after it, and the commit lays them over the
   stored image that already holds the earlier ones. *)
let test_recalled_frame_commits_final_bytes () =
  with_env (fun env ->
      let scribe =
        Obj_class.define ~name:"scribe"
          [
            Obj_class.entry ~label:Obj_class.Gcp "scribble" (fun ctx _ ->
                Memory.write ctx.Ctx.mem 100 (Bytes.of_string "first");
                Sim.sleep (Time.ms 300);
                Memory.write ctx.Ctx.mem 300 (Bytes.of_string "second");
                Value.Unit);
            Obj_class.entry ~label:Obj_class.S "peek" (fun ctx _ ->
                Value.Str (Bytes.to_string (Memory.read ctx.Ctx.mem 100 ~len:5)));
          ]
      in
      Cluster.register_class env.sys.cluster scribe;
      let obj =
        Object_manager.create_object env.sys.om ~home:1 ~class_name:"scribe"
          Value.Unit
      in
      let server = Option.get (Cluster.server_at env.sys.cluster 1) in
      let th = Thread.start env.sys.om ~obj ~entry:"scribble" Value.Unit in
      Sim.sleep (Time.ms 100);
      let other =
        if Thread.node th = env.sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id
        then env.sys.cluster.Cluster.compute_nodes.(1)
        else env.sys.cluster.Cluster.compute_nodes.(0)
      in
      let downgrades () =
        Obs.Registry.count (Dsm.Dsm_server.metrics server) "dsm/downgrades"
      in
      let downs = downgrades () in
      ignore (direct env ~node:other obj "peek" Value.Unit);
      check_bool "the read recalled the writer's frame" true
        (downgrades () > downs);
      (match Thread.try_join th with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "scribble failed: %s" (Printexc.to_string e));
      let shipped =
        List.concat_map
          (function
            | Store.Wal.Prepared p ->
                List.concat_map
                  (fun (_, _, spans) ->
                    List.map (fun (off, b) -> (off, Bytes.to_string b)) spans)
                  p.Store.Wal.writes
            | _ -> [])
          (Store.Wal.records (wal server))
      in
      Alcotest.(check (list (pair int string)))
        "the prepare carries only the bytes after the recall"
        [ (300, "second") ] shipped;
      let data_seg =
        let desc =
          Option.get
            (Store.Directory.lookup (Dsm.Dsm_server.directory server) obj)
        in
        (List.find
           (fun e -> String.equal e.Store.Directory.role "data")
           desc.Store.Directory.entries)
          .Store.Directory.seg
      in
      match
        Store.Segment_store.read_page (Dsm.Dsm_server.store server) data_seg 0
      with
      | Ra.Partition.Zeroed -> Alcotest.fail "nothing committed"
      | Ra.Partition.Data b ->
          Alcotest.(check (pair string string))
            "both writes committed" ("first", "second")
            (Bytes.sub_string b 100 5, Bytes.sub_string b 300 6))

let test_deadlock_broken_and_retried () =
  with_env (fun env ->
      let a = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let b = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let xfer = Object_manager.create_object env.sys.om ~class_name:"transfer" Value.Unit in
      let t1 =
        Thread.start env.sys.om ~obj:xfer ~entry:"lock_two"
          (Value.Pair (Value.of_sysname a, Value.of_sysname b))
      in
      let t2 =
        Thread.start env.sys.om ~obj:xfer ~entry:"lock_two"
          (Value.Pair (Value.of_sysname b, Value.of_sysname a))
      in
      ignore (Thread.join t1);
      ignore (Thread.join t2);
      (* every touch survived exactly once per committed transaction *)
      check_int "a touched twice" 2
        (Value.to_int (direct env a "balance" Value.Unit));
      check_int "b touched twice" 2
        (Value.to_int (direct env b "balance" Value.Unit));
      check_bool "the deadlock caused an abort+retry" true
        (atomicity env.mgr "atomicity/retries" >= 1))

(* Concurrent read-modify-writes of one account from two compute
   servers.  Taking R on the read and upgrading to W on the write, two
   deposits can both hold R and both wait for W: a conversion deadlock
   that only the watchdog breaks, by aborting one of them.  After one
   committed deposit per node, each node's deposits take W on first
   touch, so they queue at the home instead. *)
let test_no_conversion_deadlock () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let nodes = env.sys.cluster.Cluster.compute_nodes in
      Array.iter
        (fun node -> ignore (direct env ~node acct "deposit" (Value.Int 1)))
        nodes;
      let retries = atomicity env.mgr "atomicity/retries" in
      let threads =
        List.init 5 (fun i ->
            Thread.start env.sys.om
              ~on:nodes.(i mod Array.length nodes).Ra.Node.id
              ~obj:acct ~entry:"deposit" (Value.Int 1))
      in
      List.iter
        (fun th ->
          match Thread.try_join th with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "deposit thread failed: %s" (Printexc.to_string e))
        threads;
      check_int "no deadlock retries" retries
        (atomicity env.mgr "atomicity/retries");
      check_int "every deposit counted" 7
        (Value.to_int (direct env acct "balance" Value.Unit));
      check_int "stored" 7 (stored_balance env acct))

let test_abort_thread_releases_locks () =
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let slow =
        Obj_class.define ~name:"slow"
          [
            Obj_class.entry ~label:Obj_class.Gcp "hold" (fun ctx arg ->
                ignore
                  (ctx.Ctx.invoke ~obj:(Value.to_sysname arg) ~entry:"touch"
                     Value.Unit);
                ctx.Ctx.compute (Time.sec 30);
                Value.Unit);
          ]
      in
      Cluster.register_class env.sys.cluster slow;
      let holder = Object_manager.create_object env.sys.om ~class_name:"slow" Value.Unit in
      let th =
        Thread.start env.sys.om ~obj:holder ~entry:"hold" (Value.of_sysname acct)
      in
      Sim.sleep (Time.ms 200);
      (* the holder now has the account write-locked; its machine
         crashes, and the failure detector aborts its transactions *)
      (match Cluster.node_by_id env.sys.cluster (Thread.node th) with
      | Some n -> Ra.Node.crash n
      | None -> Alcotest.fail "holder node missing");
      Atomicity.Manager.abort_thread env.mgr ~thread_id:(Thread.id th);
      (* a new transaction on a surviving node can lock the account *)
      let survivor =
        if Thread.node th = env.sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id
        then env.sys.cluster.Cluster.compute_nodes.(1)
        else env.sys.cluster.Cluster.compute_nodes.(0)
      in
      let t0 = Sim.now () in
      check_int "deposit proceeds" 1
        (Value.to_int (direct env ~node:survivor acct "deposit" (Value.Int 1)));
      check_bool "no deadlock wait" true
        (Time.diff (Sim.now ()) t0 < Time.sec 5))

let test_mixed_s_bypasses_locks () =
  (* an s-thread can read data a gcp transaction holds write-locked:
     the paper's "dangerous" interleaving is possible by design *)
  with_env (fun env ->
      let acct = Object_manager.create_object env.sys.om ~class_name:"account" Value.Unit in
      let slow =
        Obj_class.define ~name:"slow2"
          [
            Obj_class.entry ~label:Obj_class.Gcp "hold" (fun ctx arg ->
                ignore
                  (ctx.Ctx.invoke ~obj:(Value.to_sysname arg) ~entry:"add_in_txn"
                     (Value.Int 99));
                ctx.Ctx.compute (Time.ms 500);
                Value.Unit);
          ]
      in
      Cluster.register_class env.sys.cluster slow;
      let holder = Object_manager.create_object env.sys.om ~class_name:"slow2" Value.Unit in
      let th =
        Thread.start env.sys.om ~obj:holder ~entry:"hold" (Value.of_sysname acct)
      in
      Sim.sleep (Time.ms 100);
      (* gcp txn in progress; an s-thread read on another machine is
         not blocked by the write lock *)
      let other =
        if Thread.node th = env.sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id
        then env.sys.cluster.Cluster.compute_nodes.(1)
        else env.sys.cluster.Cluster.compute_nodes.(0)
      in
      let t0 = Sim.now () in
      let v = Value.to_int (direct env ~node:other acct "balance" Value.Unit) in
      check_bool "s-read did not block on the write lock" true
        (Time.diff (Sim.now ()) t0 < Time.ms 400);
      (* it may even see the uncommitted 99 - that is the documented
         dangerous behaviour; just check it is one of the two values *)
      check_bool "saw either state" true (v = 0 || v = 99);
      ignore (Thread.join th))

let test_indoubt_participant_learns_commit () =
  (* the classic 2PC window: participant B crashes after voting yes
     but before the commit arrives; the coordinator decided COMMIT and
     applied at participant A.  At recovery, B must ask the
     coordinator and apply - presumed abort here would lose money. *)
  with_env (fun env ->
      let a = Apps.Bank.open_account env.sys.om ~home:1 ~balance:100 () in
      let b = Apps.Bank.open_account env.sys.om ~home:2 ~balance:0 () in
      let office = Apps.Bank.create_office env.sys.om in
      let server2 = Option.get (Cluster.server_at env.sys.cluster 2) in
      (* crash server 2 the moment its WAL shows a prepared txn *)
      let eng = Sim.engine () in
      let rec arm () =
        Engine.at eng
          (Time.add (Engine.now eng) (Time.ms 1))
          (fun () ->
            let prepared =
              List.exists
                (function Store.Wal.Prepared _ -> true | _ -> false)
                (Store.Wal.records (wal server2))
            in
            if prepared then
              (* let the yes-vote reach the coordinator, then die
                 before the commit decision arrives *)
              Engine.at eng
                (Time.add (Engine.now eng) (Time.ms 5))
                (fun () -> Ra.Node.crash (Dsm.Dsm_server.node server2))
            else arm ())
      in
      arm ();
      let th =
        Thread.start env.sys.om ~obj:office ~entry:"transfer"
          (Value.List [ Value.of_sysname a; Value.of_sysname b; Value.Int 30 ])
      in
      (* the coordinator treats the lost Commit ack as best-effort *)
      (match Thread.try_join th with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "transfer failed: %s" (Printexc.to_string e));
      check_int "A committed the debit" 70 (stored_balance env a);
      (* B recovers; its resolver settles the in-doubt transaction *)
      Ra.Node.restart (Dsm.Dsm_server.node server2);
      Dsm.Dsm_server.recover server2;
      Sim.sleep (Time.ms 200);
      check_int "B applied the in-doubt credit at recovery" 30
        (stored_balance env b);
      check_none_in_doubt "after recovery" env.sys.cluster)

let test_money_conserved_under_random_server_crashes () =
  (* transfers against a data server that crashes and recovers at a
     random moment: whatever completes or aborts, no money is created
     or destroyed in stable storage *)
  for seed = 1 to 6 do
    Sim.exec ~seed (fun () ->
        let eng = Sim.engine () in
        let sys =
          Clouds.boot eng ~ratp_config:fast_ratp ~compute:2 ~data:2
            ~workstations:1 ()
        in
        let mgr =
          Atomicity.Manager.install sys.om ~deadlock_timeout:(Time.ms 300)
            ~max_retries:3 ()
        in
        ignore mgr;
        let env = { sys; mgr } in
        let a = Apps.Bank.open_account sys.om ~home:1 ~balance:500 () in
        let b = Apps.Bank.open_account sys.om ~home:2 ~balance:500 () in
        let office = Apps.Bank.create_office sys.om in
        let rng = Rng.split (Engine.rng eng) in
        let crash_at = Time.ms (20 + Rng.int rng 200) in
        let server2 = Option.get (Cluster.server_at sys.cluster 2) in
        Engine.at eng crash_at (fun () ->
            Ra.Node.crash (Dsm.Dsm_server.node server2));
        Engine.at eng (Time.add crash_at (Time.ms 300)) (fun () ->
            Ra.Node.restart (Dsm.Dsm_server.node server2);
            Dsm.Dsm_server.recover server2);
        let threads =
          List.init 6 (fun i ->
              let amount = 10 + (5 * i) in
              let src, dst = if i mod 2 = 0 then (a, b) else (b, a) in
              Thread.start sys.om ~obj:office ~entry:"transfer"
                (Value.List
                   [ Value.of_sysname src; Value.of_sysname dst;
                     Value.Int amount ]))
        in
        List.iter (fun th -> ignore (Thread.try_join th)) threads;
        Sim.sleep (Time.sec 2);
        let total = stored_balance env a + stored_balance env b in
        Alcotest.(check int)
          (Printf.sprintf "money conserved (seed %d)" seed)
          1000 total;
        check_none_in_doubt (Printf.sprintf "seed %d" seed) sys.cluster)
  done

let test_name_bindings_survive_compute_crash () =
  (* the name server is an object; with lcp binds its state commits
     to the data server, so naming survives losing every compute
     server's memory *)
  with_env (fun env ->
      let acct = Apps.Bank.open_account env.sys.om ~balance:1 () in
      Clouds.Name_server.bind env.sys.om ~name:"Payroll" acct;
      Array.iter Ra.Node.crash env.sys.cluster.Cluster.compute_nodes;
      Array.iter Ra.Node.restart env.sys.cluster.Cluster.compute_nodes;
      Sim.sleep (Time.ms 100);
      match Clouds.Name_server.lookup env.sys.om "Payroll" with
      | Some s -> check_bool "binding survived" true (Ra.Sysname.equal s acct)
      | None -> Alcotest.fail "binding lost with the compute servers")

let test_wal_records_commits () =
  with_env (fun env ->
      let acct =
        Object_manager.create_object env.sys.om ~home:1 ~class_name:"account" Value.Unit
      in
      ignore (direct env acct "deposit" (Value.Int 5));
      match Cluster.server_at env.sys.cluster 1 with
      | None -> Alcotest.fail "no server"
      | Some server ->
          let records = Store.Wal.records (wal server) in
          check_bool "prepare logged" true
            (List.exists
               (function Store.Wal.Prepared _ -> true | _ -> false)
               records);
          check_bool "commit logged" true
            (List.exists
               (function Store.Wal.Committed _ -> true | _ -> false)
               records))

let () =
  Alcotest.run "atomicity"
    [
      ( "durability",
        [
          Alcotest.test_case "gcp commit is durable" `Quick
            test_gcp_commit_is_durable;
          Alcotest.test_case "s update is volatile" `Quick
            test_s_thread_update_is_volatile;
          Alcotest.test_case "gcp survives compute crash" `Quick
            test_gcp_survives_compute_crash;
          Alcotest.test_case "commit leaves no watchdog pending" `Quick
            test_commit_leaves_no_watchdog;
          Alcotest.test_case "wal records commits" `Quick
            test_wal_records_commits;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "user exception rolls back" `Quick
            test_user_exception_rolls_back;
          Alcotest.test_case "failed transfer rolls back both" `Quick
            test_failed_transfer_rolls_back_both;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "multi-object transfer" `Quick
            test_multi_object_transfer_atomic;
          Alcotest.test_case "gcp isolation" `Quick
            test_gcp_isolation_no_lost_updates;
          Alcotest.test_case "lcp commit ships spans" `Quick
            test_lcp_commit_ships_spans;
          Alcotest.test_case "lcp local consistency" `Quick
            test_lcp_local_consistency;
          Alcotest.test_case "recalled frame commits final bytes" `Quick
            test_recalled_frame_commits_final_bytes;
          Alcotest.test_case "read-only gcp releases locks" `Quick
            test_read_only_gcp_releases_locks;
        ] );
      ( "failures",
        [
          Alcotest.test_case "deadlock broken and retried" `Quick
            test_deadlock_broken_and_retried;
          Alcotest.test_case "no conversion deadlock" `Quick
            test_no_conversion_deadlock;
          Alcotest.test_case "abort_thread releases locks" `Quick
            test_abort_thread_releases_locks;
          Alcotest.test_case "s-threads bypass locks" `Quick
            test_mixed_s_bypasses_locks;
          Alcotest.test_case "in-doubt participant learns commit" `Quick
            test_indoubt_participant_learns_commit;
          Alcotest.test_case "money conserved under server crashes" `Slow
            test_money_conserved_under_random_server_crashes;
          Alcotest.test_case "name bindings survive compute crash" `Quick
            test_name_bindings_survive_compute_crash;
        ] );
    ]
