(* A fault-tolerant bank using PET (§5.2.2).

   The ledger is replicated on three data servers.  A resilient
   "interest posting" computation runs as two parallel execution
   threads on different compute servers.  Mid-run we crash both a
   compute server and one of the data servers — the computation still
   completes, commits to a quorum, and the recovered server is brought
   back in sync.

   Run with:  dune exec examples/fault_tolerant_bank.exe *)

open Clouds

let ledger =
  Obj_class.define ~name:"ledger"
    ~constructor:(fun ctx arg -> Memory.set_int ctx.Ctx.mem 0 (Value.to_int arg))
    [
      Obj_class.entry ~label:Obj_class.Gcp "post_interest" (fun ctx arg ->
          let balance = Memory.get_int ctx.Ctx.mem 0 in
          (* a deliberately slow computation so the crashes land mid-run *)
          ctx.Ctx.compute (Sim.Time.ms 300);
          let rate = Value.to_int arg in
          let interest = balance * rate / 100 in
          Memory.set_int ctx.Ctx.mem 0 (balance + interest);
          Value.Int (balance + interest));
      Obj_class.entry ~label:Obj_class.S "balance" (fun ctx _ ->
          Value.Int (Memory.get_int ctx.Ctx.mem 0));
    ]

let () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng
          ~ratp_config:
            { Ratp.Endpoint.default_config with
              retry_initial = Sim.Time.ms 20;
              max_attempts = 3 }
          ~compute:3 ~data:3 ~workstations:1 ()
      in
      let mgr =
        Atomicity.Manager.install sys.om ~deadlock_timeout:(Sim.Time.ms 500) ()
      in
      Cluster.register_class sys.cluster ledger;

      (* replicate the ledger on all three data servers *)
      let group =
        Pet.Replica.create sys.om ~class_name:"ledger" ~degree:3
          (Value.Int 10_000)
      in
      Printf.printf "ledger (initial balance 10000) replicated on data servers: %s\n"
        (String.concat ", "
           (Array.to_list (Array.map string_of_int group.Pet.Replica.homes)));

      (* inject failures: a compute server dies at 100ms, a data
         server at 150ms *)
      let compute_victim = sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id in
      let data_victim = group.Pet.Replica.homes.(2) in
      Pet.Failure.crash_at sys.cluster compute_victim (Sim.Time.ms 100);
      Pet.Failure.crash_at sys.cluster data_victim (Sim.Time.ms 150);
      Printf.printf "scheduled crashes: compute server %d at 100ms, data server %d at 150ms\n\n"
        compute_victim data_victim;

      (* the resilient computation: 2 PETs, quorum of 2 *)
      let outcome =
        Pet.Runner.run mgr ~group ~entry:"post_interest" ~parallel:2 ~quorum:2
          (Value.Int 5)
      in
      (match outcome.Pet.Runner.value with
      | Some (Value.Int v) ->
          Printf.printf "interest posted: new balance %d (expected 10500)\n" v;
          assert (v = 10_500)
      | Some _ | None -> failwith "PET computation failed");
      Printf.printf
        "winner: PET #%d | completed: %d | killed: %d | replicas updated: %d/3 | quorum: %b\n"
        (Option.value ~default:(-1) outcome.Pet.Runner.winner)
        outcome.Pet.Runner.completed outcome.Pet.Runner.killed
        outcome.Pet.Runner.replicas_updated outcome.Pet.Runner.quorum_ok;
      Printf.printf "resources: %.0f thread-ms for a single logical computation\n\n"
        outcome.Pet.Runner.thread_ms;
      assert outcome.Pet.Runner.quorum_ok;

      (* bring the dead data server back and resync its replica *)
      Pet.Failure.restart_at sys.cluster data_victim 0;
      Sim.sleep (Sim.Time.ms 100);
      let stale = 2 in
      let synced =
        Pet.Replica.copy_state sys.om group ~from_index:0 ~to_index:stale
      in
      Printf.printf "data server %d restarted; replica resynced: %b\n"
        data_victim synced;
      let check =
        Object_manager.invoke sys.om
          ~node:sys.cluster.Cluster.compute_nodes.(1)
          ~thread_id:0 ~origin:None ~txn:None
          ~obj:(Pet.Replica.pick group stale) ~entry:"balance" Value.Unit
      in
      Printf.printf "recovered replica balance: %d\n" (Value.to_int check);
      assert (Value.to_int check = 10_500))
