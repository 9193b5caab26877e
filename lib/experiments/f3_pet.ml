module V = Clouds.Value

type point = { parallel : int; completion_rate : float; mean_thread_ms : float }

type result = { trials : int; points : point list }

let replicas = 3
let quorum = 2

(* One trial: boot a fresh cluster, schedule random crashes, run the
   resilient computation, report (completed, thread_ms). *)
let trial ~seed ~parallel =
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:Fixtures.fast_ratp_3 ~compute:3 ~data:3
          ~workstations:0 ()
      in
      let mgr =
        Atomicity.Manager.install sys.Clouds.om
          ~deadlock_timeout:(Sim.Time.ms 400) ~max_retries:4 ()
      in
      Clouds.Cluster.register_class sys.Clouds.cluster
        (Fixtures.ledger_cls "pet-ledger");
      let group =
        Pet.Replica.create sys.Clouds.om ~class_name:"pet-ledger" ~degree:replicas
          V.Unit
      in
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      (* dynamic failures: compute servers are flaky (p=0.45 each,
         mid-run) while data servers fail less often (p=0.15), so the
         quantity under study — how many parallel threads survive —
         dominates the outcome *)
      Array.iter
        (fun node ->
          if Sim.Rng.chance rng 0.45 then
            Pet.Failure.crash_at sys.Clouds.cluster node.Ra.Node.id
              (Sim.Time.ms (50 + Sim.Rng.int rng 400)))
        sys.Clouds.cluster.Clouds.Cluster.compute_nodes;
      Array.iter
        (fun node ->
          if Sim.Rng.chance rng 0.15 then
            Pet.Failure.crash_at sys.Clouds.cluster node.Ra.Node.id
              (Sim.Time.ms (50 + Sim.Rng.int rng 400)))
        sys.Clouds.cluster.Clouds.Cluster.data_nodes;
      let outcome =
        Pet.Runner.run mgr ~group ~entry:"work" ~parallel ~quorum (V.Int 1)
      in
      (outcome.Pet.Runner.quorum_ok, outcome.Pet.Runner.thread_ms))

let run ?(trials = 25) ?(parallel_counts = [ 1; 2; 3 ]) () =
  let points =
    List.map
      (fun parallel ->
        let completions = ref 0 in
        let cost = ref 0.0 in
        for i = 1 to trials do
          (* the same seed across parallel counts gives every series
             the identical failure schedule *)
          let ok, thread_ms = trial ~seed:(7000 + i) ~parallel in
          if ok then incr completions;
          cost := !cost +. thread_ms
        done;
        {
          parallel;
          completion_rate = float_of_int !completions /. float_of_int trials;
          mean_thread_ms = !cost /. float_of_int trials;
        })
      parallel_counts
  in
  { trials; points }

let to_json (r : result) =
  let open Obs.Export in
  let point p =
    Obj
      [
        ("parallel", int p.parallel);
        ("completion_rate", Num p.completion_rate);
        ("mean_thread_ms", Num p.mean_thread_ms);
      ]
  in
  Obj
    [
      ("replicas", int replicas); ("quorum", int quorum);
      ("trials", int r.trials);
      ("points", Arr (List.map point r.points));
    ]
