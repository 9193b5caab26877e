module V = Clouds.Value

type result = {
  warm_ms : float;
  cold_ms : float;
  locality_avg_ms : float;
}

let run ?(invocations = 200) () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:2 ~data:1 ~workstations:0 () in
      Clouds.Cluster.register_class sys.Clouds.cluster
        (Fixtures.null_cls "null-object");
      let invoke node obj =
        ignore
          (Clouds.Object_manager.invoke sys.Clouds.om ~node ~thread_id:0
             ~origin:None ~txn:None ~obj ~entry:"null" V.Unit)
      in
      let time f =
        let t0 = Sim.now () in
        f ();
        Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0)
      in
      let n0 = sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(0) in
      let n1 = sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(1) in
      (* cold: created through node 0, first invocation from node 1
         pages everything over the network from a cold data server *)
      let obj =
        Clouds.Object_manager.create_object sys.Clouds.om ~on:n0
          ~class_name:"null-object" V.Unit
      in
      let cold_ms = time (fun () -> invoke n1 obj) in
      let warm_stats = Sim.Stats.series "warm" in
      for _ = 1 to 20 do
        Sim.Stats.add warm_stats (time (fun () -> invoke n1 obj))
      done;
      let warm_ms = Sim.Stats.mean warm_stats in
      (* locality workload: a pool of objects, 90% of invocations hit
         the previously used object *)
      let pool =
        Array.init 10 (fun _ ->
            Clouds.Object_manager.create_object sys.Clouds.om ~on:n0
              ~class_name:"null-object" V.Unit)
      in
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      let stats = Sim.Stats.series "locality" in
      let current = ref pool.(0) in
      for _ = 1 to invocations do
        if Sim.Rng.chance rng 0.10 then
          current := pool.(Sim.Rng.int rng (Array.length pool));
        Sim.Stats.add stats (time (fun () -> invoke n1 !current))
      done;
      {
        warm_ms;
        cold_ms;
        locality_avg_ms = Sim.Stats.mean stats;
      })

let to_json (r : result) =
  let open Obs.Export in
  Obj
    [
      ("warm_ms", Num r.warm_ms); ("cold_ms", Num r.cold_ms);
      ("locality_avg_ms", Num r.locality_avg_ms);
    ]
