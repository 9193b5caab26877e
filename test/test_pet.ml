(* Tests for PET: replica groups, state propagation, quorum commit,
   and resilience to static and dynamic failures. *)

open Sim
open Clouds

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A replicated ledger: the balance lives in the first data word. *)
let ledger =
  let get ctx = Memory.get_int ctx.Ctx.mem 0 in
  let set ctx v = Memory.set_int ctx.Ctx.mem 0 v in
  Obj_class.define ~name:"ledger"
    [
      Obj_class.entry ~label:Obj_class.Gcp "apply" (fun ctx arg ->
          let v = get ctx in
          ctx.Ctx.compute (Time.ms 50);
          set ctx (v + Value.to_int arg);
          Value.Int (v + Value.to_int arg));
      Obj_class.entry ~label:Obj_class.Gcp "slow_apply" (fun ctx arg ->
          let v = get ctx in
          ctx.Ctx.compute (Time.ms 400);
          set ctx (v + Value.to_int arg);
          Value.Int (v + Value.to_int arg));
      Obj_class.entry ~label:Obj_class.S "read" (fun ctx _ -> Value.Int (get ctx));
    ]

let fast_ratp =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Time.ms 20;
    max_attempts = 3;
  }

type env = { sys : Clouds.system; mgr : Atomicity.Manager.t }

let with_env ?(compute = 3) ?(data = 3) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:fast_ratp ~compute ~data ~workstations:1 ()
      in
      let mgr =
        Atomicity.Manager.install sys.om ~deadlock_timeout:(Time.ms 300)
          ~max_retries:5 ()
      in
      Cluster.register_class sys.cluster ledger;
      f { sys; mgr })

let direct env ?(node = env.sys.cluster.Cluster.compute_nodes.(0)) obj entry arg
    =
  Object_manager.invoke env.sys.om ~node ~thread_id:0 ~origin:None ~txn:None
    ~obj ~entry arg

let member_value env group i =
  Value.to_int (direct env (Pet.Replica.pick group i) "read" Value.Unit)

(* ------------------------------------------------------------------ *)

let test_group_creation () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      check_int "three members" 3 (Pet.Replica.degree group);
      let homes = Array.to_list group.Pet.Replica.homes in
      check_int "distinct data servers" 3
        (List.length (List.sort_uniq Int.compare homes));
      check_bool "degree above data servers rejected" true
        (try
           ignore
             (Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:4
                Value.Unit);
           false
         with Invalid_argument _ -> true))

let test_copy_state () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:2 Value.Unit in
      ignore (direct env (Pet.Replica.pick group 0) "apply" (Value.Int 41));
      check_int "source updated" 41 (member_value env group 0);
      check_int "target untouched" 0 (member_value env group 1);
      check_bool "copy succeeds" true
        (Pet.Replica.copy_state env.sys.om group ~from_index:0 ~to_index:1);
      check_int "target caught up" 41 (member_value env group 1))

(* The copy reads the source's committed pages from its store: the
   copying node (the first live compute server) must not join any
   source page's copyset, and the writer's frames must not be
   recalled. *)
let test_copy_state_no_coherence () =
  with_env (fun env ->
      let cl = env.sys.cluster in
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:2 Value.Unit in
      let src = Pet.Replica.pick group 0 in
      let writer = cl.Cluster.compute_nodes.(1) in
      ignore (direct env ~node:writer src "apply" (Value.Int 9));
      let copier = cl.Cluster.compute_nodes.(0).Ra.Node.id in
      let entries =
        match Object_manager.fetch_descriptor env.sys.om writer src with
        | Some d ->
            List.filter
              (fun e -> e.Store.Directory.role <> "code")
              d.Store.Directory.entries
        | None -> Alcotest.fail "source descriptor missing"
      in
      let server_of seg =
        Option.get
          (Cluster.server_at cl (Placement.locate cl.Cluster.placement seg))
      in
      let downgrades () =
        List.fold_left
          (fun acc e ->
            acc
            + Obs.Registry.count
                (Dsm.Dsm_server.metrics (server_of e.Store.Directory.seg))
                "dsm/downgrades")
          0 entries
      in
      let before = downgrades () in
      check_bool "copy succeeds" true
        (Pet.Replica.copy_state env.sys.om group ~from_index:0 ~to_index:1);
      List.iter
        (fun e ->
          let seg = e.Store.Directory.seg in
          for page = 0 to Ra.Page.count_for e.Store.Directory.size - 1 do
            check_bool
              (Printf.sprintf "%s page %d: copier not in copyset"
                 e.Store.Directory.role page)
              false
              (List.mem copier
                 (Dsm.Dsm_server.copyset_of (server_of seg) seg page))
          done)
        entries;
      check_int "no frame recalled from the writer" before (downgrades ());
      check_int "target caught up" 9 (member_value env group 1))

let test_basic_pet_run () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      let outcome =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:2 ~quorum:2
          (Value.Int 7)
      in
      check_bool "value produced" true (outcome.Pet.Runner.value = Some (Value.Int 7));
      check_bool "quorum reached" true outcome.Pet.Runner.quorum_ok;
      check_int "all replicas updated" 3 outcome.Pet.Runner.replicas_updated;
      (* every replica converged to exactly one application *)
      for i = 0 to 2 do
        check_int (Printf.sprintf "replica %d" i) 7 (member_value env group i)
      done)

let test_losers_do_not_double_apply () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      let outcome =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:3 ~quorum:3
          (Value.Int 1)
      in
      check_bool "succeeded" true outcome.Pet.Runner.quorum_ok;
      (* three parallel threads each incremented *their* replica by 1;
         propagation must leave every replica with exactly 1 *)
      for i = 0 to 2 do
        check_int (Printf.sprintf "replica %d applied once" i) 1
          (member_value env group i)
      done)

let test_dynamic_compute_crash () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      (* kill the first compute server while the PETs are working *)
      let victim = env.sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id in
      Pet.Failure.crash_at env.sys.cluster victim (Time.ms 100);
      let outcome =
        Pet.Runner.run env.mgr ~group ~entry:"slow_apply" ~parallel:2 ~quorum:2
          (Value.Int 5)
      in
      check_bool "computation survived the crash" true
        outcome.Pet.Runner.quorum_ok;
      check_bool "result produced" true
        (outcome.Pet.Runner.value = Some (Value.Int 5)))

let test_static_data_server_failure () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      (* one replica's data server is already down when we start *)
      Pet.Failure.crash_now env.sys.cluster group.Pet.Replica.homes.(1);
      let outcome =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:3 ~quorum:2
          (Value.Int 9)
      in
      check_bool "quorum reached without the dead replica" true
        outcome.Pet.Runner.quorum_ok;
      check_int "two replicas updated" 2 outcome.Pet.Runner.replicas_updated;
      (* the survivors hold the committed value *)
      check_int "replica 0" 9 (member_value env group 0);
      check_int "replica 2" 9 (member_value env group 2))

let test_quorum_unreachable () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      Pet.Failure.crash_now env.sys.cluster group.Pet.Replica.homes.(1);
      Pet.Failure.crash_now env.sys.cluster group.Pet.Replica.homes.(2);
      let outcome =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:3 ~quorum:2
          (Value.Int 3)
      in
      (* one replica still works, so a thread completes, but the
         quorum cannot be met *)
      check_bool "no quorum" false outcome.Pet.Runner.quorum_ok;
      check_bool "fewer than quorum updated" true
        (outcome.Pet.Runner.replicas_updated < 2))

let test_all_threads_fail () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      (* every data server down: no thread can even activate *)
      Array.iter
        (fun home -> Pet.Failure.crash_now env.sys.cluster home)
        group.Pet.Replica.homes;
      let outcome =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:2 ~quorum:1
          (Value.Int 1)
      in
      check_bool "no value" true (outcome.Pet.Runner.value = None);
      check_bool "no quorum" false outcome.Pet.Runner.quorum_ok)

let test_resource_cost_grows_with_parallelism () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      let o1 =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:1 ~quorum:1
          (Value.Int 1)
      in
      let o3 =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:3 ~quorum:1
          (Value.Int 1)
      in
      check_bool "both succeeded" true
        (o1.Pet.Runner.quorum_ok && o3.Pet.Runner.quorum_ok);
      check_bool
        (Printf.sprintf "3 threads cost more (%.1f vs %.1f thread-ms)"
           o3.Pet.Runner.thread_ms o1.Pet.Runner.thread_ms)
        true
        (o3.Pet.Runner.thread_ms > o1.Pet.Runner.thread_ms))

let test_recovered_server_catches_up () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:2 Value.Unit in
      Pet.Failure.crash_now env.sys.cluster group.Pet.Replica.homes.(1);
      let outcome =
        Pet.Runner.run env.mgr ~group ~entry:"apply" ~parallel:2 ~quorum:1
          (Value.Int 4)
      in
      check_bool "committed on the survivor" true outcome.Pet.Runner.quorum_ok;
      (* the dead server comes back and is synchronized explicitly *)
      Pet.Failure.restart_at env.sys.cluster group.Pet.Replica.homes.(1) 0;
      Sim.sleep (Time.ms 100);
      check_bool "resync" true
        (Pet.Replica.copy_state env.sys.om group ~from_index:0 ~to_index:1);
      check_int "caught up" 4 (member_value env group 1))

let test_live_members () =
  with_env (fun env ->
      let group = Pet.Replica.create env.sys.om ~class_name:"ledger" ~degree:3 Value.Unit in
      Alcotest.(check (list int))
        "all live" [ 0; 1; 2 ]
        (Pet.Replica.live_members env.sys.om group);
      Pet.Failure.crash_now env.sys.cluster group.Pet.Replica.homes.(1);
      Alcotest.(check (list int))
        "one down" [ 0; 2 ]
        (Pet.Replica.live_members env.sys.om group))

let () =
  Alcotest.run "pet"
    [
      ( "replicas",
        [
          Alcotest.test_case "group creation" `Quick test_group_creation;
          Alcotest.test_case "copy state" `Quick test_copy_state;
          Alcotest.test_case "copy state leaves copysets alone" `Quick
            test_copy_state_no_coherence;
          Alcotest.test_case "live members" `Quick test_live_members;
        ] );
      ( "runs",
        [
          Alcotest.test_case "basic run" `Quick test_basic_pet_run;
          Alcotest.test_case "losers do not double apply" `Quick
            test_losers_do_not_double_apply;
          Alcotest.test_case "resource cost grows" `Quick
            test_resource_cost_grows_with_parallelism;
        ] );
      ( "failures",
        [
          Alcotest.test_case "dynamic compute crash" `Quick
            test_dynamic_compute_crash;
          Alcotest.test_case "static data server failure" `Quick
            test_static_data_server_failure;
          Alcotest.test_case "quorum unreachable" `Quick
            test_quorum_unreachable;
          Alcotest.test_case "all threads fail" `Quick test_all_threads_fail;
          Alcotest.test_case "recovered server catches up" `Quick
            test_recovered_server_catches_up;
        ] );
    ]
