(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index).

   Part 1 prints the reproduction tables — simulated time versus the
   paper's measurements — at full sample sizes.  Part 2 wraps each
   experiment in a Bechamel microbenchmark so the wall-clock cost of
   the simulation itself is tracked (one Test.make per table/figure).

   dune exec bench/main.exe            -- tables + bechamel
   dune exec bench/main.exe -- tables  -- reproduction tables only
   dune exec bench/main.exe -- bench   -- bechamel only
   dune exec bench/main.exe -- --json [--quick]
                                       -- machine-readable baseline:
                                          writes BENCH_core.json *)

open Bechamel
open Toolkit

let reproduction_tables () =
  print_endline "Clouds reproduction: paper vs simulation";
  print_endline "========================================\n";
  print_string (Experiments.T1_kernel.report (Experiments.T1_kernel.run ()));
  print_newline ();
  print_string (Experiments.T2_network.report (Experiments.T2_network.run ()));
  print_newline ();
  print_string
    (Experiments.T3_invocation.report (Experiments.T3_invocation.run ()));
  print_newline ();
  print_string (Experiments.F1_sort.report (Experiments.F1_sort.run ()));
  print_newline ();
  print_string
    (Experiments.F2_consistency.report (Experiments.F2_consistency.run ()));
  print_newline ();
  print_string (Experiments.F3_pet.report (Experiments.F3_pet.run ~trials:25 ()));
  print_newline ();
  print_string (Experiments.Consistency.report (Experiments.Consistency.run ()));
  print_newline ();
  print_string (Experiments.Ablations.report ());
  print_newline ()

(* One Bechamel test per table/figure; each run executes the whole
   simulated experiment at a reduced size so a benchmark iteration
   stays sub-second. *)
let bechamel_tests =
  Test.make_grouped ~name:"clouds-repro"
    [
      Test.make ~name:"T1-kernel"
        (Staged.stage (fun () ->
             ignore (Experiments.T1_kernel.run ~samples:10 ())));
      Test.make ~name:"T2-network"
        (Staged.stage (fun () ->
             ignore (Experiments.T2_network.run ~samples:5 ())));
      Test.make ~name:"T3-invoke"
        (Staged.stage (fun () ->
             ignore (Experiments.T3_invocation.run ~invocations:20 ())));
      Test.make ~name:"F1-sort"
        (Staged.stage (fun () ->
             ignore
               (Experiments.F1_sort.run ~elements:4096 ~worker_counts:[ 1; 4 ] ())));
      Test.make ~name:"F2-consistency"
        (Staged.stage (fun () ->
             ignore (Experiments.F2_consistency.run ~samples:6 ())));
      Test.make ~name:"F3-pet"
        (Staged.stage (fun () ->
             ignore (Experiments.F3_pet.run ~trials:3 ())));
      Test.make ~name:"Consistency"
        (Staged.stage (fun () ->
             ignore
               (Experiments.Consistency.run ~copysets:[ 2 ] ~increments:8
                  ~elements:1024 ~workers:2 ())));
    ]

(* Wall-clock ms/run for every table/figure, sorted by name so the
   output order is stable. *)
let bechamel_estimates ~quota_s () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second quota_s) ~stabilize:false
      ~compaction:false ()
  in
  let raw = Benchmark.all cfg instances bechamel_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> (name, est /. 1e6) :: acc
      | Some _ | None -> acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run_bechamel () =
  print_endline "Bechamel: wall-clock cost of each simulated experiment";
  print_endline "=======================================================";
  List.iter
    (fun (name, ms) -> Printf.printf "  %-28s %10.2f ms/run\n" name ms)
    (bechamel_estimates ~quota_s:2.0 ());
  print_newline ()

(* --- machine-readable baseline (BENCH_core.json) -------------------- *)

(* Hand-rolled JSON: the container has no JSON library and the format
   below is flat enough not to need one.  All simulated metrics come
   from fixed-seed simulations and are printed with a fixed precision,
   so two runs of the same binary produce a byte-identical
   ["simulated"] object; only ["wall_clock"] varies between hosts. *)

let j_num v = Printf.sprintf "%.6f" v
let j_int = string_of_int
let j_str s = Printf.sprintf "%S" s
let j_field k v = Printf.sprintf "%S: %s" k v
let j_obj fields = "{" ^ String.concat ", " fields ^ "}"
let j_arr items = "[" ^ String.concat ", " items ^ "]"

(* The "obs" section: one traced run of the CI-sized load cell.  The
   tracer only reads the sim clock, so everything here — span counts,
   the critical-path stage decomposition, the metrics-registry
   rollup — is as deterministic as the rest of ["simulated"].  The
   same object is also written alone to BENCH_obs.json so bench-diff
   can pin it against its own committed baseline. *)
let obs_section () =
  let r =
    Experiments.Trace_run.run ~cell:(List.hd Experiments.Load.smoke_cells) ()
  in
  let stage_fields (st : Obs.Export.stages) =
    [
      j_field "transport_ms" (j_num st.Obs.Export.transport_ms);
      j_field "fault_ms" (j_num st.fault_ms);
      j_field "commit_ms" (j_num st.commit_ms);
      j_field "other_ms" (j_num st.other_ms);
    ]
  in
  let pct = function
    | None -> "null"
    | Some (ts : Obs.Export.trace_sum) ->
        j_obj
          (j_field "total_ms" (j_num ts.Obs.Export.total_ms)
          :: j_field "spans" (j_int ts.nspans)
          :: stage_fields ts.st)
  in
  let s = r.Experiments.Trace_run.summary in
  j_obj
    [
      j_field "cell"
        (j_str r.Experiments.Trace_run.point.Experiments.Load.cell.label);
      j_field "traces" (j_int s.Obs.Export.traces);
      j_field "spans" (j_int s.spans);
      j_field "mean" (j_obj (stage_fields s.s_mean));
      j_field "p50" (pct s.p50);
      j_field "p95" (pct s.p95);
      j_field "p99" (pct s.p99);
      j_field "registry"
        (j_obj
           (List.map
              (fun (path, v) -> j_field path (j_int v))
              r.Experiments.Trace_run.totals));
    ]

(* The "commit" section: the A/B group-commit smoke pair plus the
   deterministic kill-mid-commit recovery scenario.  Only
   simulated-time metrics are emitted (the point's wall-clock field
   is deliberately dropped), so the object is byte-stable across
   hosts; like obs it is also written alone, to BENCH_commit.json,
   for bench-diff's third baseline. *)
let commit_section () =
  let points = Experiments.Commit.run () in
  let o = Experiments.Commit.run_crash () in
  let pt (p : Experiments.Commit.point) =
    let open Experiments.Commit in
    j_obj
      [
        j_field "label" (j_str p.cell.label);
        j_field "clients" (j_int p.cell.clients);
        j_field "footprint" (j_int p.cell.footprint);
        j_field "window_ms"
          (match p.cell.window with
          | None -> "null"
          | Some w -> j_num (Sim.Time.to_ms_f w));
        j_field "committed" (j_int p.committed);
        j_field "retries" (j_int p.retries);
        j_field "p50_ms" (j_num p.p50_ms);
        j_field "p95_ms" (j_num p.p95_ms);
        j_field "mean_ms" (j_num p.mean_ms);
        j_field "throughput" (j_num p.throughput);
        j_field "wal_records" (j_int p.wal_records);
        j_field "wal_flushes" (j_int p.wal_flushes);
        j_field "mean_batch" (j_num p.mean_batch);
        j_field "sim_ms" (j_num p.sim_ms);
      ]
  in
  let open Experiments.Commit in
  j_obj
    [
      j_field "cells" (j_arr (List.map pt points));
      j_field "crash"
        (j_obj
           [
             j_field "seed" (j_int o.seed);
             j_field "sessions" (j_int o.sessions);
             j_field "deposits_per_session" (j_int o.deposits_per_session);
             j_field "acked" (j_int o.acked);
             j_field "crash_retries" (j_int o.crash_retries);
             j_field "lost" (j_int o.lost);
             j_field "ghosts" (j_int o.ghosts);
             j_field "checkpoints" (j_int o.checkpoints);
             j_field "log_truncated" (j_int o.log_truncated);
             j_field "recovered_records" (j_int o.recovered_records);
             j_field "violations" (j_arr (List.map j_str o.violations));
             j_field "trace" (j_str o.trace);
           ]);
    ]

(* The "consistency" section: the relaxed-mode A/B grid of DESIGN
   §17 — scoped invalidation counts (one-copy vs release), shared
   counters (one-copy vs commutative) and the F1 sort under both
   arbitrated modes.  Pure fixed-seed simulated metrics, so the
   object is byte-stable across hosts; like obs and commit it is
   also written alone, to BENCH_consistency.json, for bench-diff's
   fourth baseline. *)
let consistency_section ~quick () =
  let r =
    Experiments.Consistency.run
      ~copysets:(if quick then [ 2; 4 ] else [ 1; 2; 4; 8 ])
      ~increments:(if quick then 16 else 32)
      ~elements:(if quick then 2_048 else 4_096)
      ()
  in
  let open Experiments.Consistency in
  j_obj
    [
      j_field "scoped"
        (j_arr
           (List.map
              (fun (p : scoped_point) ->
                j_obj
                  [
                    j_field "mode" (j_str p.mode);
                    j_field "copyset" (j_int p.copyset);
                    j_field "writes" (j_int p.writes);
                    j_field "inval_rpcs" (j_int p.inval_rpcs);
                    j_field "deferred" (j_int p.deferred);
                    j_field "page_moves" (j_int p.page_moves);
                    j_field "elapsed_ms" (j_num p.elapsed_ms);
                  ])
              r.scoped));
      j_field "counters"
        (j_arr
           (List.map
              (fun (p : counter_point) ->
                j_obj
                  [
                    j_field "mode" (j_str p.mode);
                    j_field "clients" (j_int p.clients);
                    j_field "increments" (j_int p.increments);
                    j_field "stalls" (j_int p.stalls);
                    j_field "page_moves" (j_int p.page_moves);
                    j_field "merge_rpcs" (j_int p.merge_rpcs);
                    j_field "converged" (string_of_bool p.converged);
                    j_field "elapsed_ms" (j_num p.elapsed_ms);
                  ])
              r.counters));
      j_field "sort"
        (j_arr
           (List.map
              (fun (p : sort_point) ->
                j_obj
                  [
                    j_field "mode" (j_str p.mode);
                    j_field "workers" (j_int p.workers);
                    j_field "total_ms" (j_num p.total_ms);
                    j_field "page_moves" (j_int p.page_moves);
                    j_field "inval_rpcs" (j_int p.inval_rpcs);
                  ])
              r.sort));
      j_field "inval_reduction_at_2" (j_num (inval_reduction r ~copyset:2));
    ]

let simulated_metrics ~quick =
  let t1 = Experiments.T1_kernel.run ~samples:(if quick then 20 else 100) () in
  let t2 = Experiments.T2_network.run ~samples:(if quick then 10 else 50) () in
  let t3 =
    Experiments.T3_invocation.run ~invocations:(if quick then 50 else 200) ()
  in
  let f1 =
    Experiments.F1_sort.run
      ~elements:(if quick then 8_192 else 16_384)
      ~worker_counts:[ 1; 2; 4; 8 ] ()
  in
  let f2 = Experiments.F2_consistency.run ~samples:(if quick then 9 else 30) () in
  let f3 = Experiments.F3_pet.run ~trials:(if quick then 8 else 25) () in
  let wf =
    Experiments.Write_fault_fanout.run
      ~sizes:(if quick then [ 1; 4; 8 ] else [ 1; 4; 8; 16 ])
      ()
  in
  let pb =
    Experiments.Page_batching.run
      ~windows:(if quick then [ 0; 8 ] else [ 0; 2; 8 ])
      ~flush_sizes:(if quick then [ 1; 16 ] else [ 1; 4; 16 ])
      ()
  in
  let tr =
    Experiments.Transport.run
      ~losses:(if quick then [ 0; 5 ] else [ 0; 1; 5; 10 ])
      ~sizes:(if quick then [ 1400; 65536 ] else [ 1400; 8192; 65536 ])
      ~calls:(if quick then 3 else 5)
      ~invocations:(if quick then 20 else 50)
      ()
  in
  let mem =
    Experiments.Membership.run
      ~arms:
        (if quick then Experiments.Membership.quick_arms
         else Experiments.Membership.full_arms)
      ~ops:(if quick then 32 else 48)
      ()
  in
  let load =
    Experiments.Load.run
      ~cells:
        (if quick then Experiments.Load.smoke_cells
         else Experiments.Load.smoke_cells @ Experiments.Load.ab_cells)
      ()
  in
  let obs = obs_section () in
  let commit = commit_section () in
  let consistency = consistency_section ~quick () in
  let simulated =
  let fanout_points ps =
    j_arr
      (List.map
         (fun p ->
           let open Experiments.Write_fault_fanout in
           j_obj
             [
               j_field "copyset" (j_int p.copyset);
               j_field "suspects" (j_int p.suspects);
               j_field "serial_ms" (j_num p.serial_ms);
               j_field "parallel_ms" (j_num p.parallel_ms);
             ])
         ps)
  in
  j_obj
    [
      j_field "t1_kernel"
        (j_obj
           [
             j_field "context_switch_ms" (j_num t1.Experiments.T1_kernel.context_switch_ms);
             j_field "fault_zero_fill_ms" (j_num t1.fault_zero_fill_ms);
             j_field "fault_data_ms" (j_num t1.fault_data_ms);
             j_field "samples" (j_int t1.samples);
           ]);
      j_field "t2_network"
        (j_obj
           [
             j_field "eth_rtt_ms" (j_num t2.Experiments.T2_network.eth_rtt_ms);
             j_field "ratp_rtt_ms" (j_num t2.ratp_rtt_ms);
             j_field "page_ratp_ms" (j_num t2.page_ratp_ms);
             j_field "page_ftp_ms" (j_num t2.page_ftp_ms);
             j_field "page_nfs_ms" (j_num t2.page_nfs_ms);
             j_field "samples" (j_int t2.samples);
           ]);
      j_field "t3_invocation"
        (j_obj
           [
             j_field "warm_ms" (j_num t3.Experiments.T3_invocation.warm_ms);
             j_field "cold_ms" (j_num t3.cold_ms);
             j_field "locality_avg_ms" (j_num t3.locality_avg_ms);
           ]);
      j_field "f1_sort"
        (j_obj
           [
             j_field "elements" (j_int f1.Experiments.F1_sort.elements);
             j_field "points"
               (j_arr
                  (List.map
                     (fun p ->
                       j_obj
                         [
                           j_field "workers" (j_int p.Experiments.F1_sort.workers);
                           j_field "total_ms" (j_num p.total_ms);
                           j_field "speedup" (j_num p.speedup);
                           j_field "page_moves" (j_int p.page_moves);
                         ])
                     f1.points));
           ]);
      j_field "f2_consistency"
        (j_obj
           [
             j_field "modes"
               (j_arr
                  (List.map
                     (fun m ->
                       j_obj
                         [
                           j_field "mode" (j_str m.Experiments.F2_consistency.mode);
                           j_field "mean_ms" (j_num m.mean_ms);
                           j_field "throughput_per_s" (j_num m.throughput_per_s);
                           j_field "lock_rpcs" (j_int m.lock_rpcs);
                         ])
                     f2.Experiments.F2_consistency.modes));
             j_field "spans"
               (j_arr
                  (List.map
                     (fun s ->
                       j_obj
                         [
                           j_field "objects_touched"
                             (j_int s.Experiments.F2_consistency.objects_touched);
                           j_field "servers_involved" (j_int s.servers_involved);
                           j_field "mean_ms" (j_num s.mean_ms);
                         ])
                     f2.spans));
           ]);
      j_field "f3_pet"
        (j_obj
           [
             j_field "replicas" (j_int f3.Experiments.F3_pet.replicas);
             j_field "quorum" (j_int f3.quorum);
             j_field "points"
               (j_arr
                  (List.map
                     (fun p ->
                       j_obj
                         [
                           j_field "parallel" (j_int p.Experiments.F3_pet.parallel);
                           j_field "completion_rate" (j_num p.completion_rate);
                           j_field "mean_thread_ms" (j_num p.mean_thread_ms);
                         ])
                     f3.points));
           ]);
      j_field "write_fault_fanout"
        (j_obj
           [
             j_field "rtt_ms" (j_num wf.Experiments.Write_fault_fanout.rtt_ms);
             j_field "baseline_ms" (j_num wf.baseline_ms);
             j_field "healthy" (fanout_points wf.healthy);
             j_field "suspected" (fanout_points wf.suspected);
           ]);
      j_field "page_batching"
        (j_obj
           [
             j_field "scans"
               (j_arr
                  (List.map
                     (fun s ->
                       let open Experiments.Page_batching in
                       j_obj
                         [
                           j_field "window" (j_int s.window);
                           j_field "sequential" (string_of_bool s.sequential);
                           j_field "fetch_rpcs" (j_int s.fetch_rpcs);
                           j_field "prefetched" (j_int s.prefetched);
                           j_field "scan_ms" (j_num s.scan_ms);
                         ])
                     pb.Experiments.Page_batching.scans));
             j_field "flushes"
               (j_arr
                  (List.map
                     (fun f ->
                       let open Experiments.Page_batching in
                       j_obj
                         [
                           j_field "pages" (j_int f.pages);
                           j_field "serial_ms" (j_num f.serial_ms);
                           j_field "batched_ms" (j_num f.batched_ms);
                           j_field "serial_rpcs" (j_int f.serial_rpcs);
                           j_field "batched_rpcs" (j_int f.batched_rpcs);
                         ])
                     pb.flushes));
           ]);
      j_field "membership"
        (j_obj
           [
             j_field "arms"
               (j_arr
                  (List.map
                     (fun o ->
                       let open Experiments.Membership in
                       j_obj
                         [
                           j_field "arm" (j_str o.arm);
                           j_field "replication" (j_int o.replication);
                           j_field "kills" (j_int o.kills);
                           j_field "ops" (j_int o.ops);
                           j_field "oks" (j_int o.oks);
                           j_field "retried" (j_int o.retried);
                           j_field "failed" (j_int o.failed);
                           j_field "detect_ms" (j_num o.detect_ms);
                           j_field "unavail_ms" (j_num o.unavail_ms);
                           j_field "reheal_ms" (j_num o.reheal_ms);
                           j_field "pages_copied" (j_int o.pages_copied);
                           j_field "lost_writes" (j_int o.lost_writes);
                           j_field "final_epoch" (j_int o.final_epoch);
                           j_field "trace" (j_str o.trace);
                         ])
                     mem));
           ]);
      j_field "transport"
        (j_obj
           [
             j_field "points"
               (j_arr
                  (List.map
                     (fun p ->
                       let open Experiments.Transport in
                       j_obj
                         [
                           j_field "loss_pct" (j_int p.loss_pct);
                           j_field "size" (j_int p.size);
                           j_field "selective" (string_of_bool p.selective);
                           j_field "oks" (j_int p.oks);
                           j_field "timeouts" (j_int p.timeouts);
                           j_field "elapsed_ms" (j_num p.elapsed_ms);
                           j_field "retrans" (j_int p.retrans);
                           j_field "retrans_bytes" (j_int p.retrans_bytes);
                           j_field "nacks" (j_int p.nacks);
                           j_field "rto_ms" (j_num p.rto_ms);
                         ])
                     tr.Experiments.Transport.points));
             j_field "bypass"
               (let b = tr.Experiments.Transport.bypass in
                j_obj
                  [
                    j_field "invocations"
                      (j_int b.Experiments.Transport.invocations);
                    j_field "local_ms" (j_num b.local_ms);
                    j_field "remote_ms" (j_num b.remote_ms);
                    j_field "local_invokes" (j_int b.local_invokes);
                  ]);
           ]);
      j_field "obs" obs;
      j_field "commit" commit;
      j_field "consistency" consistency;
      j_field "load"
        (j_obj
           [
             j_field "cells"
               (j_arr
                  (List.map
                     (fun p ->
                       let open Experiments.Load in
                       j_obj
                         [
                           j_field "label" (j_str p.cell.label);
                           j_field "sharded" (string_of_bool p.cell.sharded);
                           j_field "data" (j_int p.cell.data);
                           j_field "compute" (j_int p.cell.compute);
                           j_field "clients" (j_int p.cell.clients);
                           j_field "rate" (j_num p.cell.rate);
                           j_field "invocations" (j_int p.cell.invocations);
                           j_field "write_pct" (j_int p.cell.write_pct);
                           j_field "completed" (j_int p.completed);
                           j_field "misses" (j_int p.misses);
                           j_field "retries" (j_int p.retries);
                           j_field "p50_ms" (j_num p.p50_ms);
                           j_field "p95_ms" (j_num p.p95_ms);
                           j_field "p99_ms" (j_num p.p99_ms);
                           j_field "mean_ms" (j_num p.mean_ms);
                           j_field "throughput" (j_num p.throughput);
                           j_field "sim_ms" (j_num p.sim_ms);
                         ])
                     load));
           ]);
    ]
  in
  (simulated, obs, commit, consistency)

let write_json ~quick path =
  let simulated, obs, commit, consistency = simulated_metrics ~quick in
  let wall =
    bechamel_estimates ~quota_s:(if quick then 0.5 else 2.0) ()
    |> List.map (fun (name, ms) ->
           j_obj [ j_field "name" (j_str name); j_field "ms_per_run" (j_num ms) ])
  in
  let doc =
    j_obj
      [
        j_field "schema" (j_str "clouds-bench/v1");
        j_field "seed" (j_int 42);
        j_field "quick" (string_of_bool quick);
        j_field "simulated" simulated;
        j_field "wall_clock" (j_arr wall);
      ]
  in
  let dump p s =
    let oc = open_out p in
    output_string oc s;
    output_char oc '\n';
    close_out oc
  in
  dump path doc;
  (* the obs, commit and consistency sections alone, for bench-diff's
     second through fourth baselines: none has a wall_clock suffix,
     so the comparisons are straight cmps *)
  dump "BENCH_obs.json" obs;
  dump "BENCH_commit.json" commit;
  dump "BENCH_consistency.json" consistency;
  Printf.printf
    "wrote %s, BENCH_obs.json, BENCH_commit.json and BENCH_consistency.json \
     (%s sizes)\n"
    path
    (if quick then "quick" else "full")

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.exists (fun a -> a = "--quick" || a = "quick") args in
  let args = List.filter (fun a -> a <> "--quick" && a <> "quick") args in
  match args with
  | [ "tables" ] -> reproduction_tables ()
  | [ "bench" ] -> run_bechamel ()
  | [ "--json" ] | [ "json" ] -> write_json ~quick "BENCH_core.json"
  | _ ->
      reproduction_tables ();
      run_bechamel ()
