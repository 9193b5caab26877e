module V = Clouds.Value
module J = Obs.Export

type Ratp.Packet.body += Ask_page | A_page

(* One sweep point: its label, then what was measured there. *)
let point label fields = J.Obj (("label", J.Str label) :: fields)

(* --- wire speed ----------------------------------------------------- *)

let page_transfer_at ~bandwidth_bps =
  Sim.exec (fun () ->
      let config = { Net.Ethernet.default_config with bandwidth_bps } in
      let ether = Net.Ethernet.create (Sim.engine ()) ~config () in
      let a = Ratp.Endpoint.create ether ~addr:1 () in
      let b = Ratp.Endpoint.create ether ~addr:2 () in
      Ratp.Endpoint.serve b ~service:1 (fun ~src:_ _ -> (A_page, Ra.Page.size));
      let stats = Sim.Stats.series "page" in
      for _ = 1 to 20 do
        let t0 = Sim.now () in
        (match Ratp.Endpoint.call a ~dst:2 ~service:1 ~size:32 Ask_page with
        | Ok _ -> ()
        | Error _ -> failwith "transfer failed");
        Sim.Stats.add_span stats (Sim.Time.diff (Sim.now ()) t0)
      done;
      Sim.Stats.mean stats)

let cold_invocation_at ~bandwidth_bps =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng
          ~ether_config:{ Net.Ethernet.default_config with bandwidth_bps }
          ~compute:2 ~data:1 ~workstations:0 ()
      in
      Clouds.Cluster.register_class sys.Clouds.cluster (Fixtures.null_cls "nil");
      let obj =
        Clouds.Object_manager.create_object sys.Clouds.om ~class_name:"nil" V.Unit
      in
      let n1 = sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(1) in
      let t0 = Sim.now () in
      ignore
        (Clouds.Object_manager.invoke sys.Clouds.om ~node:n1 ~thread_id:0
           ~origin:None ~txn:None ~obj ~entry:"null" V.Unit);
      Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0))

(* an 8K page over RaTP, fragmented, and the whole cold activation
   path *)
let bandwidth () =
  List.map
    (fun (label, bps) ->
      point label
        [
          ("page_ms", J.Num (page_transfer_at ~bandwidth_bps:bps));
          ("cold_invoke_ms", J.Num (cold_invocation_at ~bandwidth_bps:bps));
        ])
    [ ("10 Mbit/s", 10_000_000); ("100 Mbit/s", 100_000_000) ]

(* --- scheduling policy ----------------------------------------------- *)

let makespan_under ~policy =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:4 ~data:1 ~workstations:0 () in
      Clouds.Cluster.set_scheduler sys.Clouds.cluster policy;
      Clouds.Cluster.register_class sys.Clouds.cluster
        (Clouds.Obj_class.define ~name:"work"
           [
             Clouds.Obj_class.entry "hog" (fun ctx _ ->
                 ctx.Clouds.Ctx.compute (Sim.Time.sec 3);
                 V.Unit);
             Clouds.Obj_class.entry "task" (fun ctx _ ->
                 ctx.Clouds.Ctx.compute (Sim.Time.ms 60);
                 V.Unit);
           ]);
      let obj =
        Clouds.Object_manager.create_object sys.Clouds.om ~class_name:"work" V.Unit
      in
      (* warm the object everywhere so placement is the only variable *)
      Array.iter
        (fun node ->
          ignore
            (Clouds.Object_manager.invoke sys.Clouds.om ~node ~thread_id:0
               ~origin:None ~txn:None ~obj ~entry:"task" V.Unit))
        sys.Clouds.cluster.Clouds.Cluster.compute_nodes;
      (* a hog pins down the first two compute servers *)
      let hogs =
        List.map
          (fun i ->
            Clouds.Thread.start sys.Clouds.om
              ~on:sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(i).Ra.Node.id
              ~obj ~entry:"hog" V.Unit)
          [ 0; 1 ]
      in
      Sim.sleep (Sim.Time.ms 50);
      (* one task at a time: each placement decision either queues
         behind a hog or picks an idle server *)
      let latencies = Sim.Stats.series "task" in
      for _ = 1 to 12 do
        let s0 = Sim.now () in
        let th = Clouds.Thread.start sys.Clouds.om ~obj ~entry:"task" V.Unit in
        ignore (Clouds.Thread.join th);
        Sim.Stats.add_span latencies (Sim.Time.diff (Sim.now ()) s0)
      done;
      List.iter (fun th -> ignore (Clouds.Thread.join th)) hogs;
      (Sim.Stats.mean latencies, Sim.Stats.percentile latencies 95.0))

(* task latency with 2 of 4 servers busy *)
let scheduler () =
  List.map
    (fun (label, policy) ->
      let mean, p95 = makespan_under ~policy in
      point label [ ("mean_ms", J.Num mean); ("p95_ms", J.Num p95) ])
    [ ("round robin", `Round_robin); ("least loaded", `Least_loaded) ]

(* --- frame cache ------------------------------------------------------ *)

let sort_with_frames ~max_frames =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data () in
      let server = Dsm.Dsm_server.create nd () in
      let nc = Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute ?max_frames () in
      let _client = Dsm.Dsm_client.create nc ~locate:(fun _ -> 1) () in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      let pages = 10 in
      Store.Segment_store.create_segment (Dsm.Dsm_server.store server) seg
        ~size:(pages * Ra.Page.size);
      let vs = Ra.Virtual_space.create () in
      Ra.Virtual_space.map vs ~base:0 ~len:(pages * Ra.Page.size)
        ~prot:Ra.Virtual_space.Read_write seg;
      (* three sequential passes over all ten pages *)
      let t0 = Sim.now () in
      for _ = 1 to 3 do
        for p = 0 to pages - 1 do
          Ra.Mmu.write nc.Ra.Node.mmu vs ~addr:(p * Ra.Page.size) (Bytes.make 64 'x')
        done
      done;
      ( Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0),
        Obs.Registry.count (Ra.Mmu.metrics nc.Ra.Node.mmu) "mmu/evictions" ))

(* three passes over ten pages *)
let frame_cache () =
  List.map
    (fun (label, max_frames) ->
      let elapsed, evictions = sort_with_frames ~max_frames in
      point label [ ("elapsed_ms", J.Num elapsed); ("evictions", J.int evictions) ])
    [
      ("unbounded frames", None);
      ("12 frames", Some 12);
      ("4 frames (thrashing)", Some 4);
    ]

(* --- loss -------------------------------------------------------------- *)

let rtt_under_loss ~drop =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let a =
        Ratp.Endpoint.create ether ~addr:1
          ~config:
            { Ratp.Endpoint.default_config with retry_initial = Sim.Time.ms 20 }
          ()
      in
      let b = Ratp.Endpoint.create ether ~addr:2 () in
      Ratp.Endpoint.serve b ~service:1 (fun ~src:_ body -> (body, 32));
      Net.Fault.set_drop_probability (Net.Ethernet.fault ether) drop;
      let stats = Sim.Stats.series "rtt" in
      for _ = 1 to 100 do
        let t0 = Sim.now () in
        (match
           Ratp.Endpoint.call a ~dst:2 ~service:1 ~size:32 (Ratp.Packet.Ping "x")
         with
        | Ok _ -> ()
        | Error _ -> ());
        Sim.Stats.add_span stats (Sim.Time.diff (Sim.now ()) t0)
      done;
      ( Sim.Stats.mean stats,
        Obs.Registry.count (Ratp.Endpoint.metrics a) "ratp/retrans" ))

(* a null RaTP round trip, 100 calls per drop probability *)
let loss () =
  List.map
    (fun drop ->
      let mean, retrans = rtt_under_loss ~drop in
      point
        (Printf.sprintf "%.0f%% frame loss" (100. *. drop))
        [ ("rtt_ms", J.Num mean); ("retrans", J.int retrans) ])
    [ 0.0; 0.05; 0.20 ]

let run () =
  J.Obj
    [
      ("wire_speed", J.Arr (bandwidth ()));
      ("placement", J.Arr (scheduler ()));
      ("frame_cache", J.Arr (frame_cache ()));
      ("frame_loss", J.Arr (loss ()));
    ]
