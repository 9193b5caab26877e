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

let test_fanout_parents_workers () =
  (* fan-out workers run under fresh pids: the spans they open must
     still hang under the caller's span *)
  let tr = Tracer.create () in
  Tracer.install tr;
  let results =
    Fun.protect ~finally:Tracer.uninstall (fun () ->
        Sim.exec (fun () ->
            Tracer.with_span "caller" (fun () ->
                Tracer.fanout ~label:"w" [ 2; 1 ] ~f:(fun ms ->
                    Tracer.with_span "worker" (fun () ->
                        Sim.sleep (Sim.Time.ms ms);
                        ms * 10)))))
  in
  Alcotest.(check (list int)) "results in input order" [ 20; 10 ] results;
  check_int "three spans" 3 (Tracer.span_count tr);
  let caller = Tracer.get tr 0 in
  check_str "caller first" "caller" caller.Tracer.name;
  List.iter
    (fun id ->
      let w = Tracer.get tr id in
      check_str "worker span" "worker" w.Tracer.name;
      check_int "parent is the caller" caller.Tracer.id w.Tracer.parent;
      check_int "caller's trace" caller.Tracer.trace w.Tracer.trace)
    [ 1; 2 ]

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
  let c = Sim.Stats.counter "cache/hits" in
  Sim.Stats.incr_by c 7;
  let h = Sim.Stats.hist "disk/queue_depth" in
  List.iter (Sim.Stats.hadd h) [ 1.0; 2.0; 3.0 ];
  let r = Registry.make "node-0" Sim.Stats.[ Counter c; Hist h ] in
  let json = Registry.snapshot_json [ r ] in
  (match Export.parse json with
  | Ok (Export.Arr [ Export.Obj fields ]) -> (
      (match List.assoc "node" fields with
      | Export.Str s -> check_str "label" "node-0" s
      | _ -> Alcotest.fail "node is not a string");
      (* a queue depth is no time: its summary keys carry no unit *)
      match Export.member "metrics" (Export.Obj fields) with
      | Some ms -> (
          match Export.member "disk/queue_depth" ms with
          | Some (Export.Obj summary) ->
              Alcotest.(check (list string))
                "unit-free histogram keys"
                [ "n"; "mean"; "p50"; "p95"; "p99"; "max" ]
                (List.map fst summary)
          | _ -> Alcotest.fail "histogram is not an object")
      | None -> Alcotest.fail "no metrics member")
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
          Clouds.Placement.place cl.Clouds.Cluster.placement seg
            [ data_node.Ra.Node.id ];
          Clouds.Placement.set_mode cl.Clouds.Cluster.placement seg mode;
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

(* [f ()] raises [Invalid_argument] and its message names [path]. *)
let check_names_path what path f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" what
  | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ " names " ^ path) true (contains msg path)

let test_registry_lookup () =
  let c = Sim.Stats.counter "cache/hits" in
  Sim.Stats.incr_by c 3;
  let h = Sim.Stats.hist "cache/lat" in
  let ms = Sim.Stats.[ Counter c; Hist h ] in
  check_int "count reads the counter" 3 (Registry.count ms "cache/hits");
  Alcotest.(check bool) "hist is the live handle" true
    (Registry.hist ms "cache/lat" == h);
  check_names_path "count of an absent path" "cache/misses" (fun () ->
      Registry.count ms "cache/misses");
  check_names_path "hist of an absent path" "cache/p99" (fun () ->
      Registry.hist ms "cache/p99");
  check_names_path "count of a histogram" "cache/lat" (fun () ->
      Registry.count ms "cache/lat");
  check_names_path "a path listed twice" "cache/hits" (fun () ->
      Registry.make "node-0" (ms @ [ Sim.Stats.Counter c ]))

(* Every registry a booted cluster exports holds each path once:
   [make] refuses a list that holds a path twice, so a collision between
   two components' lists (the DSM server's own counters and its disk's
   and log's) fails here instead of dropping a metric from every
   export. *)
let test_registry_paths_distinct () =
  let json =
    Sim.exec ~seed:3 (fun () ->
        let eng = Sim.engine () in
        let sys = Clouds.boot eng ~compute:2 ~data:2 ~workstations:0 () in
        let mgr = Atomicity.Manager.install sys.Clouds.om () in
        Registry.snapshot_json
          (Clouds.Telemetry.registries ~om:sys.Clouds.om
             ~extra:(Atomicity.Manager.metrics mgr)
             sys.Clouds.cluster))
  in
  let regs =
    match Export.parse json with
    | Ok (Export.Arr regs) -> regs
    | Ok _ -> Alcotest.fail "snapshot is not an array"
    | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  in
  check_int "cluster, data and compute registries" 5 (List.length regs);
  let data_paths =
    List.filter_map
      (function
        | Export.Obj fields -> (
            match (List.assoc "node" fields, List.assoc "metrics" fields) with
            | Export.Str node, Export.Obj ms
              when String.starts_with ~prefix:"data-" node ->
                Some (List.map fst ms)
            | _ -> None)
        | _ -> None)
      regs
  in
  check_int "two data registries" 2 (List.length data_paths);
  List.iter
    (fun paths ->
      List.iter
        (fun path ->
          Alcotest.(check bool) ("data node exports " ^ path) true
            (List.mem path paths))
        [ "dsm/commits"; "disk/ops"; "disk/queue_depth"; "wal/records";
          "wal/flush_batch"; "ratp/retrans" ])
    data_paths

(* A metric has one name: the path its handle was created with is the
   key every snapshot prints it under.  The registries of a 2+2
   cluster with atomicity installed hold exactly the handles of the
   components [Telemetry] wires in, each named [layer/metric]; every
   node's registry carries its MMU and CPU counters, and one remote
   read fault on a compute node moves that node's [mmu/faults] by
   one. *)
let test_metric_name_is_path () =
  (* ^[a-z]+(/[a-z_0-9]+)+$ *)
  let well_formed name =
    let all ok w = w <> "" && String.for_all ok w in
    let lower c = c >= 'a' && c <= 'z' in
    let part c = lower c || c = '_' || (c >= '0' && c <= '9') in
    match String.split_on_char '/' name with
    | layer :: (_ :: _ as rest) ->
        all lower layer && List.for_all (all part) rest
    | _ -> false
  in
  let nodes json =
    match Export.parse json with
    | Ok (Export.Arr regs) ->
        List.map
          (function
            | Export.Obj fields -> (
                match
                  (List.assoc "node" fields, List.assoc "metrics" fields)
                with
                | Export.Str node, Export.Obj ms -> (node, ms)
                | _ -> Alcotest.fail "registry without node or metrics")
            | _ -> Alcotest.fail "registry is not an object")
          regs
    | Ok _ -> Alcotest.fail "snapshot is not an array"
    | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  in
  let expected, before, after, reader =
    Sim.exec ~seed:3 (fun () ->
        let eng = Sim.engine () in
        let sys = Clouds.boot eng ~compute:2 ~data:2 ~workstations:0 () in
        let cl = sys.Clouds.cluster in
        let mgr = Atomicity.Manager.install sys.Clouds.om () in
        let regs =
          Clouds.Telemetry.registries ~om:sys.Clouds.om
            ~extra:(Atomicity.Manager.metrics mgr) cl
        in
        let node kind (n : Ra.Node.t) role =
          ( Printf.sprintf "%s-%d" kind n.Ra.Node.id,
            Ratp.Endpoint.metrics n.Ra.Node.endpoint
            @ Ra.Mmu.metrics n.Ra.Node.mmu
            @ Ra.Cpu.metrics n.Ra.Node.cpu
            @ role )
        in
        let expected =
          ( "cluster",
            Clouds.Object_manager.metrics sys.Clouds.om
            @ Atomicity.Manager.metrics mgr )
          :: (Array.to_list
                (Array.mapi
                   (fun i n ->
                     node "data" n
                       (Dsm.Dsm_server.metrics cl.Clouds.Cluster.servers.(i)))
                   cl.Clouds.Cluster.data_nodes)
             @ Array.to_list
                 (Array.mapi
                    (fun i n ->
                      node "compute" n
                        (Dsm.Dsm_client.metrics cl.Clouds.Cluster.clients.(i)))
                    cl.Clouds.Cluster.compute_nodes))
          |> List.map (fun (label, ms) -> (label, List.map Sim.Stats.name ms))
        in
        (* one read of a fresh page homed on a data server *)
        let data_node = cl.Clouds.Cluster.data_nodes.(0) in
        let seg = Ra.Sysname.fresh data_node.Ra.Node.names in
        Store.Segment_store.create_segment
          (Dsm.Dsm_server.store cl.Clouds.Cluster.servers.(0))
          seg ~size:Ra.Page.size;
        Clouds.Placement.place cl.Clouds.Cluster.placement seg
          [ data_node.Ra.Node.id ];
        let vs = Ra.Virtual_space.create () in
        Ra.Virtual_space.map vs ~base:0 ~len:Ra.Page.size
          ~prot:Ra.Virtual_space.Read_only seg;
        let reader = cl.Clouds.Cluster.compute_nodes.(0) in
        let before = Registry.snapshot_json regs in
        ignore (Ra.Mmu.read reader.Ra.Node.mmu vs ~addr:0 ~len:8);
        ( expected,
          before,
          Registry.snapshot_json regs,
          Printf.sprintf "compute-%d" reader.Ra.Node.id ))
  in
  let before = nodes before and after = nodes after in
  Alcotest.(check (list string))
    "one registry per component set" (List.map fst expected)
    (List.map fst after);
  List.iter
    (fun (label, names) ->
      let keys = List.map fst (List.assoc label after) in
      Alcotest.(check (list string))
        (label ^ ": each handle's name is its snapshot key")
        (List.sort String.compare names) keys;
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " is layer/metric") true (well_formed k))
        keys;
      if label <> "cluster" then
        List.iter
          (fun path ->
            Alcotest.(check bool) (label ^ " holds " ^ path) true
              (List.mem path keys))
          [ "mmu/faults"; "cpu/switches" ])
    expected;
  let faults snap =
    match List.assoc_opt "mmu/faults" (List.assoc reader snap) with
    | Some (Export.Num n) -> int_of_float n
    | _ -> Alcotest.failf "%s has no mmu/faults counter" reader
  in
  check_int "one remote read fault, one mmu/faults" (faults before + 1)
    (faults after)

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
  check_str "obs section identical"
    (Export.to_string (Experiments.Trace_run.to_json r1))
    (Export.to_string (Experiments.Trace_run.to_json r2));
  (* and the export round-trips through our own validator *)
  match Export.validate_chrome r1.Experiments.Trace_run.chrome with
  | Ok events ->
      check_int "one event per span" (Tracer.span_count r1.Experiments.Trace_run.tracer) events
  | Error e -> Alcotest.failf "chrome export invalid: %s" e

let num what = function
  | Some (Export.Num f) -> f
  | _ -> Alcotest.failf "%s is not a number" what

(* the traced smoke cell, run once for the tests that read it *)
let smoke_trace = lazy (Experiments.Trace_run.run ~cell:smoke ())

let test_stages_decompose_p99 () =
  let r = Lazy.force smoke_trace in
  let obs = Experiments.Trace_run.to_json r in
  check_int "every request became a trace" smoke.Experiments.Load.invocations
    (int_of_float (num "traces" (Export.member "traces" obs)));
  match Export.member "p99" obs with
  | None | Some Export.Null -> Alcotest.fail "no p99 trace"
  | Some t ->
      (* the stage breakdown is a cost decomposition, not a
         wall-clock partition: concurrent fan-out children can sum
         past the root duration, but every stage is non-negative and
         the decomposition is non-trivial *)
      let stage key = num key (Export.member key t) in
      let transport = stage "transport_ms" and fault = stage "fault_ms" in
      let commit = stage "commit_ms" and other = stage "other_ms" in
      Alcotest.(check bool)
        "stages non-negative" true
        (transport >= 0.0 && fault >= 0.0 && commit >= 0.0 && other >= 0.0);
      let parts = transport +. fault +. commit +. other in
      Alcotest.(check bool)
        "decomposition is non-trivial" true
        (parts > 0.0 && stage "total_ms" > 0.0)

(* The rollup sums counters only: each of its paths is the sum of
   that counter over the node registries, every counter is rolled
   up, and no keyed family ([*_by]) appears. *)
let test_rollup_counts_counters () =
  let r = Lazy.force smoke_trace in
  let nodes =
    match Export.parse r.Experiments.Trace_run.registries_json with
    | Ok (Export.Arr nodes) -> nodes
    | Ok _ -> Alcotest.fail "snapshot is not an array"
    | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  in
  let sums = Hashtbl.create 64 in
  List.iter
    (fun node ->
      match Export.member "metrics" node with
      | Some (Export.Obj ms) ->
          List.iter
            (function
              | path, Export.Num v ->
                  let cur = Option.value ~default:0 (Hashtbl.find_opt sums path) in
                  Hashtbl.replace sums path (cur + int_of_float v)
              | _ -> ())
            ms
      | _ -> Alcotest.fail "node has no metrics object")
    nodes;
  let expected =
    Hashtbl.fold (fun path v l -> (path, v) :: l) sums []
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int)))
    "rollup = per-node counter sums" expected r.Experiments.Trace_run.totals;
  List.iter
    (fun (path, _) ->
      Alcotest.(check bool)
        (path ^ " is no keyed family") false
        (String.ends_with ~suffix:"_by" path))
    r.Experiments.Trace_run.totals

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
          Alcotest.test_case "fan-out workers parent under the caller"
            `Quick test_fanout_parents_workers;
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
          Alcotest.test_case "lookup names an absent path" `Quick
            test_registry_lookup;
          Alcotest.test_case "paths are distinct" `Quick
            test_registry_paths_distinct;
          Alcotest.test_case "a metric's name is its path" `Quick
            test_metric_name_is_path;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "tracing does not perturb" `Quick
            test_tracing_does_not_perturb;
          Alcotest.test_case "mid-cell trace determinism" `Quick
            test_trace_determinism_mid_cell;
          Alcotest.test_case "p99 stage decomposition" `Quick
            test_stages_decompose_p99;
          Alcotest.test_case "rollup counts counters only" `Quick
            test_rollup_counts_counters;
        ] );
    ]
