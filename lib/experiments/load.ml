(* Open-loop load harness for the sharded name service.

   Each cell boots a cluster of [data] + [compute] servers, pre-binds
   [nkeys] names, then replays invocation traffic from [clients]
   simulated client sessions: arrivals are a Poisson process at
   [rate] per simulated second (open loop — arrivals do not wait for
   earlier requests, so queues actually build when a stage
   saturates), each request is a name-server lookup or, with
   probability [write_pct]%, a (re)bind.  Latency is measured from
   the arrival instant to completion, so it includes every queueing
   effect: CPU scheduling on the chosen compute node, DSM fetches and
   invalidation storms on the name-server heap, and the per-shard
   write serialization.

   The same cell runs with sharding on (bindings spread over all data
   servers by the placement ring, binds fanning out over per-shard
   leaders) or off (the historical single name-server object — every
   DSM fetch hits one data server and every bind funnels through one
   leader), which is the A/B the acceptance test compares.

   Everything inside the simulation is driven by the run's seed;
   wall-clock seconds are measured around [Sim.exec] purely as an
   engine-performance metric and never enter the simulated results. *)

module Cl = Clouds.Cluster

type cell = {
  label : string;
  data : int;
  compute : int;
  clients : int;
  rate : float;  (** aggregate arrivals per simulated second *)
  invocations : int;
  write_pct : int;  (** percent of arrivals that are binds *)
  nkeys : int;
  sharded : bool;
}

type point = {
  cell : cell;
  completed : int;
  misses : int;  (** lookups that found no binding (should be 0) *)
  retries : int;  (** client backoff-and-retry rounds after Unavailable *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  throughput : float;  (** completions per simulated second *)
  sim_ms : float;  (** simulated makespan of the measured window *)
  wall_s : float;  (** real seconds for the whole cell, engine metric *)
  top_heap_mb : float;
      (** the process's peak OCaml heap so far, host metric like
          [wall_s] *)
}

let cell ~label ~data ~compute ~clients ~rate ~invocations ~write_pct ~nkeys
    ~sharded =
  { label; data; compute; clients; rate; invocations; write_pct; nkeys; sharded }

(* CI-sized grid: small enough to run on every push, both arms so the
   A/B path cannot rot. *)
let smoke_cells =
  [
    cell ~label:"smoke-shard" ~data:3 ~compute:4 ~clients:64 ~rate:220.0
      ~invocations:1500 ~write_pct:10 ~nkeys:64 ~sharded:true;
    cell ~label:"smoke-central" ~data:3 ~compute:4 ~clients:64 ~rate:220.0
      ~invocations:1500 ~write_pct:10 ~nkeys:64 ~sharded:false;
  ]

(* The A/B pair the acceptance test compares: enough load that the
   centralized object's bind leader and DSM invalidation traffic
   visibly queue, while the sharded arm stays comfortable. *)
let ab_cells =
  [
    cell ~label:"mid-shard" ~data:8 ~compute:16 ~clients:512 ~rate:800.0
      ~invocations:12_000 ~write_pct:10 ~nkeys:256 ~sharded:true;
    cell ~label:"mid-central" ~data:8 ~compute:16 ~clients:512 ~rate:800.0
      ~invocations:12_000 ~write_pct:10 ~nkeys:256 ~sharded:false;
  ]

(* The big cell: >= 50 nodes, >= 100k invocations.  This is the one
   the wall-clock budget in the test suite is pinned against. *)
let big_cell =
  cell ~label:"big-shard" ~data:16 ~compute:40 ~clients:2000 ~rate:1500.0
    ~invocations:100_000 ~write_pct:5 ~nkeys:1024 ~sharded:true

(* The roadmap target: hundreds of nodes, a million invocations.
   Latency lives in a streaming histogram, so the sample store stays
   O(1) no matter how many arrivals complete; run it via
   [experiments_main -- load-xl] (too big for tier-1 CI). *)
let xl_cell =
  cell ~label:"xl-shard" ~data:40 ~compute:160 ~clients:8000 ~rate:4000.0
    ~invocations:1_000_000 ~write_pct:5 ~nkeys:4096 ~sharded:true

let full_cells = smoke_cells @ ab_cells @ [ big_cell ]

let key_name k = Printf.sprintf "obj-%04d" k

let run_cell ?(seed = 42) ?(atomicity = false) ?observer (c : cell) =
  let wall0 = Unix.gettimeofday () in
  let result =
    Sim.exec ~seed (fun () ->
        let eng = Sim.engine () in
        let sys =
          Clouds.boot eng ~ether_config:Fixtures.ether_1g ~compute:c.compute
            ~data:c.data ~workstations:0 ()
        in
        let cl = sys.Clouds.cluster in
        Cl.set_name_sharding cl c.sharded;
        let om = sys.Clouds.om in
        (* [atomicity] runs the cell with the transaction layer
           installed, so binds pay a real lock/commit stage — the
           configuration the traced stage breakdown decomposes.  The
           bench cells leave it off, as they always have. *)
        let atm = if atomicity then Some (Atomicity.Manager.install om ()) else None in
        (* the bound sysnames are well-known names: the harness
           measures the name service, not the objects behind it *)
        for k = 0 to c.nkeys - 1 do
          Clouds.Name_server.bind om ~name:(key_name k)
            (Ra.Sysname.well_known (k + 1))
        done;
        (* streaming histogram: O(1) memory, so the 1M-invocation
           cell carries the same footprint as the smoke cells *)
        let lat = Sim.Stats.hist "load/latency_ms" in
        let misses = ref 0 in
        (* a saturated stage (the centralized arm on purpose) can push
           a data server past the RaTP retry ladder; the open-loop
           client just backs off and retries, and the stall lands in
           the latency sample like any other queueing delay.  Under
           [atomicity], deadlock-watchdog aborts surface the same
           way. *)
        let retries = ref 0 in
        let completed = ref 0 in
        let done_ivar = Sim.Ivar.create () in
        let t_start = Sim.now () in
        let rng = Sim.Rng.create ~seed:(seed lxor 0x10ad) in
        let ncomp = Array.length cl.Cl.compute_nodes in
        let request i () =
         Obs.Tracer.with_span "request" @@ fun () ->
          let t_arrival = Sim.now () in
          let node = cl.Cl.compute_nodes.((i mod c.clients) mod ncomp) in
          let k = Sim.Rng.int rng c.nkeys in
          (if Sim.Rng.int rng 100 < c.write_pct then
             Fixtures.with_retry ~retries (fun () ->
                 Clouds.Name_server.bind om ~name:(key_name k)
                   (Ra.Sysname.well_known (k + 1)))
           else
             match
               Fixtures.with_retry ~retries (fun () ->
                   Clouds.Name_server.lookup ~on:node om (key_name k))
             with
             | Some _ -> ()
             | None -> incr misses);
          Sim.Stats.hadd lat
            (Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t_arrival));
          incr completed;
          if !completed = c.invocations then
            Sim.Ivar.fill done_ivar
              (Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t_start))
        in
        (* open-loop generator: runs in engine context (event thunks),
           so arrivals cost one event each and never block behind the
           requests they trigger *)
        let mean_gap_ms = 1000.0 /. c.rate in
        let rec arm i at =
          Sim.Engine.at eng at (fun () ->
              ignore (Sim.Engine.spawn eng "load-req" (request i));
              if i + 1 < c.invocations then begin
                let u = Sim.Rng.float rng 1.0 in
                let gap = Sim.Time.of_ms_f (-.log (1.0 -. u) *. mean_gap_ms) in
                arm (i + 1) (Sim.Time.add at gap)
              end)
        in
        arm 0 t_start;
        let sim_ms = Sim.Ivar.read done_ivar in
        (* the observer runs inside the simulation, while the cluster
           is alive — e.g. to snapshot the metrics registries *)
        (match observer with Some f -> f cl om atm | None -> ());
        (sim_ms, !misses, !retries, lat))
  in
  let sim_ms, misses, retries, lat = result in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  {
    cell = c;
    completed = Sim.Stats.hist_n lat;
    misses;
    retries;
    p50_ms = Sim.Stats.hist_percentile lat 50.0;
    p95_ms = Sim.Stats.hist_percentile lat 95.0;
    p99_ms = Sim.Stats.hist_percentile lat 99.0;
    mean_ms = Sim.Stats.hist_mean lat;
    throughput = float_of_int (Sim.Stats.hist_n lat) /. (sim_ms /. 1000.0);
    sim_ms;
    wall_s;
    top_heap_mb;
  }

let run ?(seed = 42) ?(cells = smoke_cells) () =
  List.map (run_cell ~seed) cells

(* Simulated metrics only: [wall_s] and [top_heap_mb] are host
   metrics and stay out. *)
let to_json points =
  let open Obs.Export in
  let point (p : point) =
    let c = p.cell in
    Obj
      [
        ("label", Str c.label); ("sharded", Bool c.sharded);
        ("data", int c.data); ("compute", int c.compute);
        ("clients", int c.clients); ("rate", Num c.rate);
        ("invocations", int c.invocations);
        ("write_pct", int c.write_pct);
        ("completed", int p.completed); ("misses", int p.misses);
        ("retries", int p.retries); ("p50_ms", Num p.p50_ms);
        ("p95_ms", Num p.p95_ms); ("p99_ms", Num p.p99_ms);
        ("mean_ms", Num p.mean_ms); ("throughput", Num p.throughput);
        ("sim_ms", Num p.sim_ms);
      ]
  in
  Obj [ ("cells", Arr (List.map point points)) ]
