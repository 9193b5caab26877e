(* The observability layer: span trees are deterministic, tracing
   never perturbs the simulation it observes, registries snapshot to
   valid JSON, and the exports validate themselves. *)

open Obs

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Tracer mechanics *)

let test_span_nesting () =
  let tr = Tracer.create () in
  Tracer.install tr;
  Fun.protect ~finally:Tracer.uninstall (fun () ->
      Sim.exec (fun () ->
          Tracer.with_span "outer" (fun () ->
              Sim.sleep (Sim.Time.ms 2);
              Tracer.with_span "inner" (fun () -> Sim.sleep (Sim.Time.ms 1)));
          Tracer.with_span "next" (fun () -> ())));
  check_int "three spans" 3 (Tracer.span_count tr);
  let outer = Tracer.get tr 0 and inner = Tracer.get tr 1 in
  let next = Tracer.get tr 2 in
  check_str "outer name" "outer" outer.Tracer.name;
  check_int "outer is a root" (-1) outer.Tracer.parent;
  check_int "inner's parent is outer" outer.Tracer.id inner.Tracer.parent;
  check_int "same trace" outer.Tracer.trace inner.Tracer.trace;
  Alcotest.(check bool)
    "sibling root starts a fresh trace" true
    (next.Tracer.trace <> outer.Tracer.trace);
  Alcotest.(check (float 1e-9))
    "outer duration" 3.0 (Tracer.duration_ms outer);
  Alcotest.(check (float 1e-9)) "inner duration" 1.0 (Tracer.duration_ms inner)

let test_disabled_tracing_is_a_noop () =
  (* no tracer installed: with_span must run the thunk and record
     nothing anywhere *)
  Alcotest.(check bool) "off" false (Tracer.on ());
  let r = Sim.exec (fun () -> Tracer.with_span "ghost" (fun () -> 41 + 1)) in
  check_int "thunk ran" 42 r

let test_span_survives_exception () =
  let tr = Tracer.create () in
  Tracer.install tr;
  Fun.protect ~finally:Tracer.uninstall (fun () ->
      Sim.exec (fun () ->
          (try
             Tracer.with_span "outer" (fun () ->
                 Tracer.with_span "boom" (fun () -> failwith "x"))
           with Failure _ -> ());
          (* the pid binding must have been restored: a new root *)
          Tracer.with_span "after" (fun () -> ())));
  check_int "spans all finished" 3 (Tracer.span_count tr);
  let after = Tracer.get tr 2 in
  check_int "binding restored, new root" (-1) after.Tracer.parent

(* ------------------------------------------------------------------ *)
(* Stage classification and export validation *)

let test_stage_classification () =
  let is name st = Export.stage_of name = st in
  Alcotest.(check bool) "rpc" true (is "rpc" Export.Transport);
  Alcotest.(check bool) "dsm.fetch" true (is "dsm.fetch" Export.Fault);
  Alcotest.(check bool) "serve.get" true (is "serve.get" Export.Fault);
  Alcotest.(check bool) "2pc.commit" true (is "2pc.commit" Export.Commit);
  Alcotest.(check bool) "serve.prepare" true (is "serve.prepare" Export.Commit);
  Alcotest.(check bool) "txn.lock" true (is "txn.lock" Export.Commit);
  Alcotest.(check bool) "request" true (is "request" Export.Other);
  Alcotest.(check bool) "invoke" true (is "invoke" Export.Other)

let test_json_parser () =
  (match Export.parse {|{"a": [1, 2.5, "s\n", true, null], "b": {}}|} with
  | Ok (Export.Obj fields) ->
      check_int "two members" 2 (List.length fields);
      (match List.assoc "a" fields with
      | Export.Arr items -> check_int "array arity" 5 (List.length items)
      | _ -> Alcotest.fail "a is not an array")
  | Ok _ -> Alcotest.fail "not an object"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Export.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON");
  (match Export.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage")

let test_validate_chrome_rejects () =
  (match Export.validate_chrome {|{"traceEvents": []}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an empty trace");
  match Export.validate_chrome {|{"no": "events"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a trace without traceEvents"

let parse_ok s =
  match Export.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %s: %s" s e

let test_json_diff_paths () =
  let base =
    parse_ok {|{"a": {"n": 1.5, "gone": 2}, "cells": [{"p99_ms": 53.4}, {"x": 1}], "l": [1, 2, 3]}|}
  in
  let now =
    parse_ok {|{"a": {"n": 1.5, "new": true}, "cells": [{"p99_ms": 55.1}, {"x": 1}], "l": [1, 2]}|}
  in
  Alcotest.(check (list string))
    "one line per changed, added and removed path"
    [
      "a.gone: removed";
      "a.new: added";
      "cells[0].p99_ms: 53.400000 → 55.100000";
      "l[2]: removed";
    ]
    (Export.diff base now);
  Alcotest.(check (list string)) "identical documents" [] (Export.diff base base);
  Alcotest.(check (list string))
    "a longer array reports the added index" [ "[1]: added" ]
    (Export.diff (Export.Arr [ Export.Null ]) (Export.Arr [ Export.Null; Export.Null ]))

let test_json_printer () =
  let v =
    Export.(
      Obj
        [
          ("i", Num 1500.0); ("f", Num 0.629); ("s", Str "q\"\n");
          ("l", Arr [ Bool true; Null ]);
        ])
  in
  let printed = Export.to_string v in
  check_str "separators, integers, %.6f and escapes"
    {|{"i": 1500, "f": 0.629000, "s": "q\"\n", "l": [true, null]}|} printed;
  Alcotest.(check bool) "round-trips" true (parse_ok printed = v);
  (* the old printer wrote every float as %.6f: an integer-valued
     float printed either way is the same value to diff *)
  Alcotest.(check (list string))
    "1500.000000 equals 1500" []
    (Export.diff (parse_ok {|{"rate": 1500.000000}|}) (parse_ok {|{"rate": 1500}|}))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_snapshot () =
  let c = Sim.Stats.counter "hits" in
  Sim.Stats.incr_by c 7;
  let h = Sim.Stats.hist "lat" in
  List.iter (Sim.Stats.hadd h) [ 1.0; 2.0; 3.0 ];
  let r = Registry.create "node-0" in
  Registry.register r "cache/hits" (Registry.Counter c);
  Registry.register r "cache/lat" (Registry.Hist h);
  let json = Registry.snapshot_json [ r ] in
  (match Export.parse json with
  | Ok (Export.Arr [ Export.Obj fields ]) ->
      (match List.assoc "node" fields with
      | Export.Str s -> check_str "label" "node-0" s
      | _ -> Alcotest.fail "node is not a string")
  | Ok _ -> Alcotest.fail "snapshot is not a one-object array"
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e);
  Alcotest.(check (list (pair string int)))
    "totals roll counters up"
    [ ("cache/hits", 7) ]
    (Registry.totals [ r ])

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_dsm_mode_metrics_exported () =
  (* the relaxed-consistency DSM counters surface in the per-node
     registries (and hence obs_metrics.json): a one-scope release
     workload and a two-client commutative merge leave exact
     dsm/mode/* totals behind *)
  let totals, json =
    Sim.exec ~seed:5 (fun () ->
        let eng = Sim.engine () in
        let sys = Clouds.boot eng ~compute:2 ~data:1 ~workstations:0 () in
        let cl = sys.Clouds.cluster in
        let server = cl.Clouds.Cluster.servers.(0) in
        let data_node = cl.Clouds.Cluster.data_nodes.(0) in
        let mk mode =
          let seg = Ra.Sysname.fresh data_node.Ra.Node.names in
          Store.Segment_store.create_segment
            (Dsm.Dsm_server.store server)
            seg ~size:Ra.Page.size;
          Clouds.Cluster.add_segment cl seg data_node.Ra.Node.id;
          Clouds.Cluster.set_consistency cl seg mode;
          seg
        in
        let vsp seg =
          let vs = Ra.Virtual_space.create () in
          Ra.Virtual_space.map vs ~base:0 ~len:Ra.Page.size
            ~prot:Ra.Virtual_space.Read_write seg;
          vs
        in
        let put n vs v =
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int v);
          Ra.Mmu.write n.Ra.Node.mmu vs ~addr:0 b
        in
        let get n vs =
          Bytes.get_int64_le (Ra.Mmu.read n.Ra.Node.mmu vs ~addr:0 ~len:8) 0
        in
        let n0 = cl.Clouds.Cluster.compute_nodes.(0)
        and n1 = cl.Clouds.Cluster.compute_nodes.(1) in
        let c0 = cl.Clouds.Cluster.clients.(0)
        and c1 = cl.Clouds.Cluster.clients.(1) in
        (* release: a reader holds a copy, so the writer's fault defers
           one per-copy invalidation and the flush sends one burst *)
        let rel = mk Ra.Partition.Release in
        let rvs = vsp rel in
        ignore (get n1 rvs);
        put n0 rvs 41;
        Dsm.Dsm_client.flush_segment c0 rel;
        (* commutative: both clients write blind, each flush ships one
           merge delta that the home applies *)
        let com = mk (Ra.Partition.Commutative Ra.Partition.Add) in
        let cvs = vsp com in
        put n0 cvs 1;
        put n1 cvs 2;
        Dsm.Dsm_client.flush_segment c0 com;
        Dsm.Dsm_client.flush_segment c1 com;
        let regs = Clouds.Telemetry.registries ~om:sys.Clouds.om cl in
        (Registry.totals regs, Registry.snapshot_json regs))
  in
  let total path =
    match List.assoc_opt path totals with Some n -> n | None -> -1
  in
  check_int "one deferred per-copy invalidation" 1
    (total "dsm/mode/deferred_invals");
  check_int "one release flush burst" 1 (total "dsm/mode/release_flush_bursts");
  check_int "both merge deltas applied at the home" 2
    (total "dsm/mode/merges_applied");
  check_int "one merge rpc per client flush" 2 (total "dsm/mode/merge_rpcs");
  (* the flush-batch histogram has no integer total but must appear in
     the JSON snapshot, which itself must parse *)
  Alcotest.(check bool)
    "flush-batch histogram exported" true
    (contains json "dsm/mode/release_flush_batch");
  match Export.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "registry snapshot does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* End-to-end: traced load cells *)

let smoke = List.hd Experiments.Load.smoke_cells

let test_tracing_does_not_perturb () =
  (* acceptance: with tracing off the metrics are what they always
     were — so a traced run must report the exact same simulated
     numbers as an untraced run of the same cell and seed *)
  let bare = Experiments.Load.run_cell ~seed:7 smoke in
  let tr = Tracer.create () in
  Tracer.install tr;
  let traced =
    Fun.protect ~finally:Tracer.uninstall (fun () ->
        Experiments.Load.run_cell ~seed:7 smoke)
  in
  let open Experiments.Load in
  check_int "completed" bare.completed traced.completed;
  check_int "misses" bare.misses traced.misses;
  check_int "retries" bare.retries traced.retries;
  Alcotest.(check (float 0.0)) "p50 identical" bare.p50_ms traced.p50_ms;
  Alcotest.(check (float 0.0)) "p95 identical" bare.p95_ms traced.p95_ms;
  Alcotest.(check (float 0.0)) "p99 identical" bare.p99_ms traced.p99_ms;
  Alcotest.(check (float 0.0)) "mean identical" bare.mean_ms traced.mean_ms;
  Alcotest.(check (float 0.0)) "sim_ms identical" bare.sim_ms traced.sim_ms;
  Alcotest.(check bool) "spans were recorded" true (Tracer.span_count tr > 0)

let test_trace_determinism_mid_cell () =
  (* same seed, same cell => byte-identical span tree (ids, parents,
     names, timestamps) and registry snapshot across two runs *)
  let r1 = Experiments.Trace_run.run () in
  let r2 = Experiments.Trace_run.run () in
  check_int "span count" (Tracer.span_count r1.Experiments.Trace_run.tracer)
    (Tracer.span_count r2.Experiments.Trace_run.tracer);
  check_str "chrome export identical" r1.Experiments.Trace_run.chrome
    r2.Experiments.Trace_run.chrome;
  check_str "registry snapshot identical"
    r1.Experiments.Trace_run.registries_json
    r2.Experiments.Trace_run.registries_json;
  check_str "critical-path report identical" r1.Experiments.Trace_run.report
    r2.Experiments.Trace_run.report;
  (* and the export round-trips through our own validator *)
  match Export.validate_chrome r1.Experiments.Trace_run.chrome with
  | Ok events ->
      check_int "one event per span" (Tracer.span_count r1.Experiments.Trace_run.tracer) events
  | Error e -> Alcotest.failf "chrome export invalid: %s" e

let test_summary_decomposes_p99 () =
  let r = Experiments.Trace_run.run ~cell:smoke () in
  let s = r.Experiments.Trace_run.summary in
  check_int "every request became a trace" smoke.Experiments.Load.invocations
    s.Export.traces;
  match s.Export.p99 with
  | None -> Alcotest.fail "no p99 trace"
  | Some t ->
      (* the stage breakdown is a cost decomposition, not a
         wall-clock partition: concurrent fan-out children can sum
         past the root duration, but every stage is non-negative and
         the decomposition is non-trivial *)
      let st = t.Export.st in
      Alcotest.(check bool)
        "stages non-negative" true
        (st.Export.transport_ms >= 0.0
        && st.Export.fault_ms >= 0.0
        && st.Export.commit_ms >= 0.0
        && st.Export.other_ms >= 0.0);
      let parts =
        st.Export.transport_ms +. st.Export.fault_ms +. st.Export.commit_ms
        +. st.Export.other_ms
      in
      Alcotest.(check bool)
        "decomposition is non-trivial" true
        (parts > 0.0 && t.Export.total_ms > 0.0)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_tracing_is_a_noop;
          Alcotest.test_case "exception safety" `Quick
            test_span_survives_exception;
        ] );
      ( "export",
        [
          Alcotest.test_case "stage classification" `Quick
            test_stage_classification;
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "json printer" `Quick test_json_printer;
          Alcotest.test_case "json diff paths" `Quick test_json_diff_paths;
          Alcotest.test_case "chrome validation rejects" `Quick
            test_validate_chrome_rejects;
        ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot and totals" `Quick test_registry_snapshot;
          Alcotest.test_case "dsm mode counters exported" `Quick
            test_dsm_mode_metrics_exported;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "tracing does not perturb" `Quick
            test_tracing_does_not_perturb;
          Alcotest.test_case "mid-cell trace determinism" `Quick
            test_trace_determinism_mid_cell;
          Alcotest.test_case "p99 stage decomposition" `Quick
            test_summary_decomposes_p99;
        ] );
    ]
