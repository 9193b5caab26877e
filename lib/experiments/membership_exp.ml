(* Membership / re-replication resilience grid.

   Each arm boots a cluster with a given replication factor, starts
   the heartbeat monitor and the replicator, creates a handful of
   replicated segments, and kills k of the n data servers while a
   client workload is writing through DSM.  The client retries on
   [Unavailable], so every operation eventually lands; the arm then
   measures how the failure played out:

   - detection time: crash instant to the monitor's [Dead] verdict;
   - unavailability window: first failed operation to the first
     subsequent success on the same segment (failover latency as the
     client experiences it);
   - reheal time: crash instant to the end of the heal pass that
     restored the replication factor, and the pages it copied;
   - safety: after the dust settles, every acknowledged write must be
     present on every current replica of its segment — anything else
     counts as a lost write and a violation.

   The replication=1 arm restarts its victim (the stable store
   survives a crash), exercising the lost-segment re-adoption path;
   the others rely purely on surviving backups.  Everything runs off
   the simulation RNG, so an (arm, seed) pair reproduces the exact
   trace — the test suite asserts this. *)

module Cl = Clouds.Cluster
module M = Membership.Monitor

type arm = {
  replication : int;
  kills : int;
  restart : bool;  (** restart the victims (only sensible arm: r=1) *)
}

let full_arms =
  [
    { replication = 1; kills = 1; restart = true };
    { replication = 2; kills = 1; restart = false };
    { replication = 3; kills = 1; restart = false };
    { replication = 3; kills = 2; restart = false };
  ]

let quick_arms =
  [
    { replication = 2; kills = 1; restart = false };
    { replication = 3; kills = 1; restart = false };
  ]

type outcome = {
  arm : string;
  seed : int;
  replication : int;
  kills : int;
  restarted : bool;
  ops : int;  (** phase-B operations attempted *)
  oks : int;  (** acknowledged (possibly after retries) *)
  retried : int;  (** operations that needed at least one retry *)
  retries : int;  (** total retries across all operations *)
  failed : int;  (** operations that exhausted the retry budget *)
  detect_ms : float;  (** crash to [Dead] verdict (first victim) *)
  unavail_ms : float;
      (** worst single-operation latency, first attempt to ack — the
          client-visible stall during failover; roughly the ordinary
          op cost in arms where nothing failed *)
  reheal_ms : float;  (** crash to end of the last heal pass *)
  pages_copied : int;
  lost_segments : int;
  lost_writes : int;  (** acked writes missing from a replica *)
  final_epoch : int;
  violations : string list;  (** empty iff all invariants hold *)
  trace : string;  (** canonical per-op trace, for determinism *)
}

let arm_label (a : arm) =
  Printf.sprintf "r%d-kill%d%s" a.replication a.kills
    (if a.restart then "-restart" else "")

(* Tight detection bounds keep a whole arm under a simulated second:
   beats every 10 ms, suspicion after 30 ms of silence, condemnation
   after 80 ms. *)
let mon_config =
  {
    M.period = Sim.Time.ms 10;
    suspect_after = Sim.Time.ms 30;
    dead_after = Sim.Time.ms 80;
  }

let n_data = 3
let n_segs = 2
let pages_per_seg = 16
let retry_sleep = Sim.Time.ms 5
let max_retries = 400

(* Create a replicated segment homed at [primary]: materialize it on
   every replica target's store directly (configuration-time, like
   class loading) and record the copyset. *)
let make_segment cl ~primary ~pages =
  let seg = Ra.Sysname.fresh cl.Cl.data_nodes.(0).Ra.Node.names in
  let targets = Cl.replica_targets cl ~primary in
  List.iter
    (fun a ->
      match Cl.server_at cl a with
      | Some srv ->
          Store.Segment_store.create_segment
            (Dsm.Dsm_server.store srv)
            seg
            ~size:(pages * Ra.Page.size)
      | None -> ())
    targets;
  Clouds.Placement.place cl.Cl.placement seg targets;
  seg

let run_arm ~seed ~ops (a : arm) =
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:Fixtures.fast_ratp
          ~replication:a.replication ~compute:2 ~data:n_data ~workstations:0
          ()
      in
      let cl = sys.Clouds.cluster in
      let mon = Cl.start_membership cl ~config:mon_config () in
      Fun.protect ~finally:(fun () -> M.stop mon) @@ fun () ->
      let repl = Clouds.Replicator.install cl mon in
      let registries =
        Clouds.Telemetry.registries ~extra:(Clouds.Replicator.metrics repl) cl
      in
      (* segment i homes at data server i+1, so kill-1 hits seg 0's
         primary while seg 1 keeps its primary up (mixed traffic) *)
      let segs =
        Array.init n_segs (fun i ->
            make_segment cl ~primary:((i mod n_data) + 1) ~pages:pages_per_seg)
      in
      let node = cl.Cl.compute_nodes.(1) in
      let client = cl.Cl.clients.(1) in
      let vspaces =
        Array.map
          (fun seg ->
            let vs = Ra.Virtual_space.create () in
            Ra.Virtual_space.map vs ~base:0
              ~len:(pages_per_seg * Ra.Page.size)
              ~prot:Ra.Virtual_space.Read_write seg;
            vs)
          segs
      in
      let expected = Array.make_matrix n_segs pages_per_seg None in
      (* one write-and-flush; only an acknowledged flush updates
         [expected], mirroring what a client may rely on *)
      let write_op ~si ~page marker =
        Ra.Mmu.write node.Ra.Node.mmu vspaces.(si)
          ~addr:(page * Ra.Page.size)
          (Bytes.of_string marker);
        Dsm.Dsm_client.flush_segment client segs.(si);
        expected.(si).(page) <- Some marker
      in
      (* phase A: seed every page so each replica holds real bytes *)
      for si = 0 to n_segs - 1 do
        for p = 0 to pages_per_seg - 1 do
          write_op ~si ~page:p (Printf.sprintf "init-%d-%d" si p)
        done
      done;
      (* the crash lands 30 ms into phase B, mid-workload *)
      let t0 = Sim.now () in
      let t_crash = Sim.Time.add t0 (Sim.Time.ms 30) in
      let victims =
        List.init a.kills (fun i -> cl.Cl.data_nodes.(i).Ra.Node.id)
      in
      List.iter
        (fun v ->
          Pet.Failure.crash_at cl v (Sim.Time.ms 30);
          if a.restart then Pet.Failure.restart_at cl v (Sim.Time.ms 280))
        victims;
      let buf = Buffer.create ops in
      let oks = ref 0 and retried = ref 0 and retries = ref 0 in
      let failed = ref 0 in
      let unavail = ref 0.0 in
      for i = 0 to ops - 1 do
        let si = i mod n_segs in
        let page = i / n_segs mod pages_per_seg in
        let marker = Printf.sprintf "op%04d-%d-%d" i si page in
        let t_start = Sim.now () in
        let rec attempt tries =
          match write_op ~si ~page marker with
          | () ->
              incr oks;
              (* the client-visible stall: first attempt to eventual
                 acknowledgement.  Measured for every op (a transport
                 retry ladder can hide a long stall inside one
                 nominally successful call), so the no-failure arms
                 report the ordinary op cost as the baseline. *)
              let stall =
                Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t_start)
              in
              if stall > !unavail then unavail := stall;
              if tries > 0 then begin
                incr retried;
                retries := !retries + tries
              end;
              Buffer.add_char buf (if tries = 0 then 'o' else 'r')
          | exception Dsm.Dsm_client.Unavailable _ ->
              if tries >= max_retries then begin
                incr failed;
                retries := !retries + tries;
                Buffer.add_char buf 'x'
              end
              else begin
                Sim.sleep retry_sleep;
                attempt (tries + 1)
              end
        in
        attempt 0;
        Sim.sleep (Sim.Time.ms 1)
      done;
      (* settle: let restarts rejoin, heal passes finish, views stop
         churning *)
      let target = Sim.Time.add t_crash (Sim.Time.ms 600) in
      let nowt = Sim.now () in
      if target > nowt then Sim.sleep (Sim.Time.diff target nowt);
      Clouds.Replicator.quiesce repl;
      let violations = ref [] in
      let violate fmt =
        Printf.ksprintf (fun s -> violations := s :: !violations) fmt
      in
      (* safety: every acknowledged write on every current replica *)
      let lost_writes = ref 0 in
      let healthy =
        Array.to_list cl.Cl.data_nodes
        |> List.filter (fun n ->
               n.Ra.Node.alive && M.usable mon n.Ra.Node.id)
        |> List.length
      in
      Array.iteri
        (fun si seg ->
          let reps = Clouds.Placement.replicas cl.Cl.placement seg in
          let want = min a.replication healthy in
          if List.length reps < want then
            violate "seg %d under-replicated: %d copies, want %d" si
              (List.length reps) want;
          List.iter
            (fun addr ->
              match Cl.server_at cl addr with
              | None -> violate "seg %d replica %d is not a data server" si addr
              | Some srv ->
                  let store = Dsm.Dsm_server.store srv in
                  Array.iteri
                    (fun p exp ->
                      match exp with
                      | None -> ()
                      | Some marker -> (
                          match
                            Store.Segment_store.read_page store seg p
                          with
                          | Ra.Partition.Data d
                            when Bytes.length d >= String.length marker
                                 && String.sub (Bytes.to_string d) 0
                                      (String.length marker)
                                    = marker ->
                              ()
                          | _ -> incr lost_writes))
                    expected.(si))
            reps)
        segs;
      if !lost_writes > 0 then
        violate "%d acknowledged writes missing from a replica" !lost_writes;
      if !failed > 0 then violate "%d operations exhausted their retries" !failed;
      let detect_ms =
        match victims with
        | [] -> 0.0
        | v :: _ -> (
            match M.last_death mon v with
            | Some t -> Sim.Time.to_ms_f (Sim.Time.diff t t_crash)
            | None ->
                violate "victim %d was never declared dead" v;
                0.0)
      in
      let reheal_ms =
        match Clouds.Replicator.last_heal repl with
        | Some t -> Sim.Time.to_ms_f (Sim.Time.diff t t_crash)
        | None -> 0.0
      in
      let unavail_ms = !unavail in
      let lost_segments = Clouds.Placement.lost_segments cl.Cl.placement in
      if lost_segments > 0 then
        violate "%d segments still have no live replica" lost_segments;
      {
        arm = arm_label a;
        seed;
        replication = a.replication;
        kills = a.kills;
        restarted = a.restart;
        ops;
        oks = !oks;
        retried = !retried;
        retries = !retries;
        failed = !failed;
        detect_ms;
        unavail_ms;
        reheal_ms;
        pages_copied =
          List.assoc "repl/pages_copied" (Obs.Registry.totals registries);
        lost_segments;
        lost_writes = !lost_writes;
        final_epoch = M.epoch mon;
        violations = List.rev !violations;
        trace = Buffer.contents buf;
      })

let run ?(seed = 42) ?(arms = full_arms) ?(ops = 48) () =
  List.map (run_arm ~seed ~ops) arms

let to_json outcomes =
  let open Obs.Export in
  let arm (o : outcome) =
    Obj
      [
        ("arm", Str o.arm); ("seed", int o.seed);
        ("replication", int o.replication); ("kills", int o.kills);
        ("ops", int o.ops); ("oks", int o.oks); ("retried", int o.retried);
        ("retries", int o.retries); ("failed", int o.failed);
        ("detect_ms", Num o.detect_ms); ("unavail_ms", Num o.unavail_ms);
        ("reheal_ms", Num o.reheal_ms); ("pages_copied", int o.pages_copied);
        ("lost_segments", int o.lost_segments);
        ("lost_writes", int o.lost_writes);
        ("final_epoch", int o.final_epoch);
        ("violations", Arr (List.map (fun v -> Str v) o.violations));
        ("trace", Str o.trace);
      ]
  in
  Obj [ ("arms", Arr (List.map arm outcomes)) ]
