(* Integration tests over the evaluation experiments: the paper's
   quantitative claims, checked as shapes and calibrated values. *)

let check_bool = Alcotest.(check bool)

let within pct target v =
  Float.abs (v -. target) /. target <= pct /. 100.0

(* ------------------------------------------------------------------ *)

let test_t1_matches_paper () =
  let r = Experiments.T1_kernel.run ~samples:30 () in
  check_bool
    (Printf.sprintf "context switch %.3f ~ 0.14" r.Experiments.T1_kernel.context_switch_ms)
    true
    (within 5.0 0.14 r.Experiments.T1_kernel.context_switch_ms);
  check_bool "zero fill ~ 1.5" true
    (within 5.0 1.5 r.Experiments.T1_kernel.fault_zero_fill_ms);
  check_bool "data fault ~ 0.629" true
    (within 5.0 0.629 r.Experiments.T1_kernel.fault_data_ms);
  (* emergent ratio, not directly calibrated *)
  let ratio =
    r.Experiments.T1_kernel.fault_zero_fill_ms
    /. r.Experiments.T1_kernel.fault_data_ms
  in
  check_bool
    (Printf.sprintf "zero/data ratio %.2f ~ 2.4" ratio)
    true
    (ratio > 2.0 && ratio < 2.9)

let test_t2_matches_paper () =
  let r = Experiments.T2_network.run ~samples:10 () in
  let open Experiments.T2_network in
  check_bool "eth rtt ~ 2.4" true (within 10.0 2.4 r.eth_rtt_ms);
  check_bool "ratp rtt ~ 4.8" true (within 10.0 4.8 r.ratp_rtt_ms);
  check_bool "page ~ 11.9" true (within 15.0 11.9 r.page_ratp_ms);
  (* the orderings and factors are emergent from protocol structure *)
  check_bool "ratp rtt ~ 2x eth" true
    (r.ratp_rtt_ms /. r.eth_rtt_ms > 1.7 && r.ratp_rtt_ms /. r.eth_rtt_ms < 2.4);
  check_bool "ratp < nfs < ftp" true
    (r.page_ratp_ms < r.page_nfs_ms && r.page_nfs_ms < r.page_ftp_ms);
  check_bool "ftp factor in [4, 9]" true
    (r.page_ftp_ms /. r.page_ratp_ms > 4.0 && r.page_ftp_ms /. r.page_ratp_ms < 9.0)

let test_t3_matches_paper () =
  let r = Experiments.T3_invocation.run ~invocations:100 () in
  let open Experiments.T3_invocation in
  check_bool
    (Printf.sprintf "warm %.1f ~ 8" r.warm_ms)
    true (within 10.0 8.0 r.warm_ms);
  check_bool
    (Printf.sprintf "cold %.0f ~ 103" r.cold_ms)
    true (within 10.0 103.0 r.cold_ms);
  check_bool "locality average near the minimum" true
    (r.locality_avg_ms < r.warm_ms *. 2.0);
  check_bool "min < avg < max" true
    (r.warm_ms < r.locality_avg_ms && r.locality_avg_ms < r.cold_ms)

let test_f1_shape () =
  let r =
    Experiments.F1_sort.run ~elements:8192 ~worker_counts:[ 1; 2; 8 ] ()
  in
  match r.Experiments.F1_sort.points with
  | [ p1; p2; p8 ] ->
      let open Experiments.F1_sort in
      (* two workers beat one; the parallel phase keeps shrinking *)
      check_bool "2 workers faster overall" true (p2.total_ms < p1.total_ms);
      check_bool "parallel phase shrinks" true (p2.sort_ms < p1.sort_ms);
      (* communication grows with distribution *)
      check_bool "page moves grow" true (p8.page_moves > p1.page_moves);
      (* and the merge bound keeps 8 workers from scaling linearly *)
      check_bool "no linear scaling at 8" true (p8.speedup < 4.0)
  | _ -> Alcotest.fail "expected three points"

let test_f2_shape () =
  let r = Experiments.F2_consistency.run ~samples:9 () in
  (match r.Experiments.F2_consistency.modes with
  | [ s; lcp; gcp ] ->
      let open Experiments.F2_consistency in
      check_bool "s < lcp" true (s.mean_ms < lcp.mean_ms);
      check_bool "lcp < gcp" true (lcp.mean_ms < gcp.mean_ms);
      check_bool "s pays no locking" true (s.lock_rpcs = 0);
      check_bool "lcp locks locally only" true (lcp.lock_rpcs = 0);
      check_bool "gcp pays global locking" true (gcp.lock_rpcs > 0);
      (* a deposit reads, then writes: only gcp's global read lock
         has to upgrade *)
      check_bool "only gcp upgrades a lock" true
        (s.lock_upgrades = 0 && lcp.lock_upgrades = 0 && gcp.lock_upgrades > 0)
  | _ -> Alcotest.fail "expected three modes");
  let latencies = List.map snd r.Experiments.F2_consistency.spans in
  let rec monotone = function
    | a :: b :: rest -> a < b && monotone (b :: rest)
    | _ -> true
  in
  check_bool "commit cost grows with span" true (monotone latencies)

let test_f3_shape () =
  let r = Experiments.F3_pet.run ~trials:10 ~parallel_counts:[ 1; 3 ] () in
  match r.Experiments.F3_pet.points with
  | [ p1; p3 ] ->
      let open Experiments.F3_pet in
      (* identical failure schedules: more PETs can only help *)
      check_bool "resilience does not decrease" true
        (p3.completion_rate >= p1.completion_rate);
      check_bool "resources grow with parallelism" true
        (p3.mean_thread_ms > p1.mean_thread_ms)
  | _ -> Alcotest.fail "expected two points"

let test_fanout_latency () =
  let r = Experiments.Write_fault_fanout.run ~sizes:[ 1; 4; 8 ] () in
  let open Experiments.Write_fault_fanout in
  match (List.rev r.healthy, r.suspected) with
  | h8 :: _, (s1 :: _ as suspected) ->
      check_bool
        (Printf.sprintf "copyset 8 overhead %.2f <= 2 rtt (%.2f)"
           (h8.parallel_ms -. r.baseline_ms)
           (2.0 *. r.rtt_ms))
        true
        (h8.parallel_ms -. r.baseline_ms <= 2.0 *. r.rtt_ms);
      (* crashed readers time out together: any number of suspects
         costs the one timeout window a single suspect does *)
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "copyset %d, %d crashed: %.3f ms within 1%% of %.3f"
               s.copyset s.suspects s.parallel_ms s1.parallel_ms)
            true
            (Float.abs (s.parallel_ms -. s1.parallel_ms)
            <= 0.01 *. s1.parallel_ms))
        suspected
  | _ -> Alcotest.fail "expected points for every size"

let test_fanout_deterministic () =
  (* the whole experiment is a fixed-seed simulation: byte-identical
     metrics on every run *)
  let a = Experiments.Write_fault_fanout.run ~sizes:[ 4 ] () in
  let b = Experiments.Write_fault_fanout.run ~sizes:[ 4 ] () in
  check_bool "identical results" true (a = b)

let test_batching_acceptance () =
  match Experiments.Page_batching.run ~flush_sizes:[ 1; 16 ] () with
  | [ f1; f16 ] ->
      let open Experiments.Page_batching in
      check_bool "one rpc for the whole batch" true (f16.batched_rpcs = 1);
      (* a per-page loop would cost ~16x the one-page flush *)
      check_bool
        (Printf.sprintf "16 pages %.2f <= 5 x 1 page %.2f" f16.batched_ms
           f1.batched_ms)
        true
        (f16.batched_ms <= 5.0 *. f1.batched_ms)
  | _ -> Alcotest.fail "expected two flush points"

let test_batching_deterministic () =
  let a = Experiments.Page_batching.run ~flush_sizes:[ 4 ] () in
  let b = Experiments.Page_batching.run ~flush_sizes:[ 4 ] () in
  check_bool "identical results" true (a = b)

let test_transport_acceptance () =
  let r =
    Experiments.Transport.run ~losses:[ 0; 5 ] ~sizes:[ 65536 ] ~calls:3
      ~invocations:10 ()
  in
  let open Experiments.Transport in
  let point ~loss_pct ~selective =
    List.find
      (fun p -> p.loss_pct = loss_pct && p.selective = selective)
      r.points
  in
  (* loss-free: no arm retransmits anything, and both arms report
     identical timing (the flag must be invisible without loss) *)
  List.iter
    (fun p ->
      if p.loss_pct = 0 then begin
        check_bool "loss-free arm resends nothing" true (p.retrans_bytes = 0);
        check_bool "loss-free arm all ok" true (p.oks = p.calls)
      end)
    r.points;
  let clean = point ~loss_pct:0 ~selective:true in
  let clean_full = point ~loss_pct:0 ~selective:false in
  check_bool "loss-free timing identical across arms" true
    (clean.elapsed_ms = clean_full.elapsed_ms);
  (* at 5% loss selective must resend far fewer bytes *)
  let sel = point ~loss_pct:5 ~selective:true in
  let full = point ~loss_pct:5 ~selective:false in
  check_bool "full-burst resends under loss" true (full.retrans_bytes > 0);
  check_bool
    (Printf.sprintf "selective %dB vs full-burst %dB" sel.retrans_bytes
       full.retrans_bytes)
    true
    (sel.retrans_bytes * 2 <= full.retrans_bytes);
  check_bool "selective path sent nacks or probes" true
    (sel.nacks > 0 || sel.retrans > 0);
  (* the bypass must beat a real transport round trip *)
  let b = r.bypass in
  check_bool "every local dispatch took the bypass" true
    (b.local_invokes = b.invocations);
  check_bool
    (Printf.sprintf "bypass %.2fms < remote %.2fms" b.local_ms b.remote_ms)
    true
    (b.local_ms < b.remote_ms)

let quick_consistency () =
  Experiments.Consistency.run ~pages:4 ~copysets:[ 2 ] ~counter_clients:2
    ~increments:8 ~elements:1024 ~workers:2 ()

let test_consistency_acceptance () =
  let r = quick_consistency () in
  let open Experiments.Consistency in
  (* grid shape: one-copy and release at each copyset, two counter
     modes, two sort arms *)
  check_bool "two scoped points" true (List.length r.scoped = 2);
  check_bool "two counter points" true (List.length r.counters = 2);
  check_bool "two sort arms" true (List.length r.sort = 2);
  let scoped m =
    List.find (fun (p : scoped_point) -> p.mode = m) r.scoped
  in
  let oc = scoped "one-copy" and rel = scoped "release" in
  (* one-copy pays an invalidation RPC per (write fault x copy);
     release defers them all into one burst per copyset member *)
  check_bool "one-copy invalidates at fault time" true (oc.deferred = 0);
  check_bool "release defers every per-copy invalidation" true
    (rel.deferred = oc.inval_rpcs);
  check_bool
    (Printf.sprintf "release cuts invalidation RPCs %d -> %d (>= 2x)"
       oc.inval_rpcs rel.inval_rpcs)
    true
    (rel.inval_rpcs > 0 && oc.inval_rpcs >= 2 * rel.inval_rpcs);
  let counter m =
    List.find (fun (p : counter_point) -> p.mode = m) r.counters
  in
  let c_oc = counter "one-copy" and c_add = counter "commutative(add)" in
  (* both arms must converge; only commutative does it without any
     coherence traffic, paying one merge RPC per client flush *)
  check_bool "one-copy counters converge" true c_oc.converged;
  check_bool "commutative counters converge" true c_add.converged;
  check_bool "one-copy ping-pongs ownership" true (c_oc.stalls > 0);
  check_bool "commutative has zero coherence stalls" true (c_add.stalls = 0);
  check_bool "one merge rpc per client" true
    (c_add.merge_rpcs = c_add.clients);
  (* the sort is correct under both modes (asserted inside sort_point)
     and release must not pay more invalidation RPCs than one-copy *)
  let sort m = List.find (fun (p : sort_point) -> p.mode = m) r.sort in
  check_bool "release sort invalidates no more than one-copy" true
    ((sort "release").inval_rpcs <= (sort "one-copy").inval_rpcs)

let test_consistency_deterministic () =
  (* fixed-seed simulations end to end: byte-identical grids *)
  check_bool "identical results" true
    (quick_consistency () = quick_consistency ())

let test_transport_deterministic () =
  let run () =
    Experiments.Transport.run ~losses:[ 5 ] ~sizes:[ 8192; 65536 ] ~calls:2
      ~invocations:5 ()
  in
  check_bool "identical results" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* The registry *)

let test_registry_unique () =
  let open Experiments in
  let unique what l =
    check_bool (what ^ " unique") true
      (List.length (List.sort_uniq String.compare l) = List.length l)
  in
  unique "ids and aliases" (List.concat_map (fun e -> e.id :: e.aliases) all);
  unique "json keys" (List.filter_map (fun e -> e.key) all);
  check_bool "aliases resolve" true
    (Option.map (fun e -> e.id) (find "wf") = Some "fanout");
  check_bool "unknown ids do not" true (find "nosuch" = None)

(* Every keyed entry at its quick size, run once for both tests. *)
let quick_sections =
  lazy
    Experiments.(
      List.filter_map
        (fun e -> Option.map (fun _ -> (e.id, e.run ~quick:true)) e.key)
        all)

let test_registry_json_roundtrip () =
  (* every keyed section survives print -> parse: nothing diff can see
     changes, and reprinting is byte-identical *)
  List.iter
    (fun (id, (o : Experiments.output)) ->
      let v = o.json in
      let printed = Obs.Export.to_string v in
      match Obs.Export.parse printed with
      | Error msg -> Alcotest.failf "%s: %s" id msg
      | Ok v' ->
          Alcotest.(check (list string)) id [] (Obs.Export.diff v v');
          Alcotest.(check string) id printed (Obs.Export.to_string v'))
    (Lazy.force quick_sections)

let contains text s =
  let n = String.length s and m = String.length text in
  let rec at i = i + n <= m && (String.sub text i n = s || at (i + 1)) in
  at 0

(* Every member name of [json] and every value that prints verbatim
   (strings, booleans, integers) must appear in [text]; a [label],
   [arm] or [scenario] string labels its row, so only its value
   shows. *)
let check_leaves id text json =
  let module J = Obs.Export in
  let seen what s =
    check_bool (Printf.sprintf "%s: %s %S printed" id what s) true (contains text s)
  in
  let rec walk = function
    | J.Obj ms ->
        List.iter
          (fun (k, v) ->
            (match v with
            | J.Str _ when List.mem k [ "label"; "arm"; "scenario" ] -> ()
            | _ -> seen "member" k);
            walk v)
          ms
    | J.Arr l -> List.iter walk l
    | J.Str s -> seen "string" s
    | J.Bool b -> seen "bool" (string_of_bool b)
    | J.Num v when Float.is_integer v -> seen "integer" (Printf.sprintf "%.0f" v)
    | J.Num _ | J.Null -> ()
  in
  walk json

let test_report_prints_every_leaf () =
  let module J = Obs.Export in
  (* one of every shape: scalars, a nested object, labelled and
     unlabelled arrays of objects, an array of scalars, and numbers
     at each printed precision *)
  let synthetic =
    J.Obj
      [
        ("alpha_ms", J.Num 0.629); ("beta", J.Num 1234.5);
        ("gamma", J.Num 12.345); ("delta", J.int 17); ("name", J.Str "zeta");
        ("inner", J.Obj [ ("flag", J.Bool true); ("nothing", J.Null) ]);
        ( "cells",
          J.Arr
            [
              J.Obj [ ("label", J.Str "cell-a"); ("hits", J.int 31) ];
              J.Obj [ ("label", J.Str "cell-b"); ("hits", J.int 32) ];
            ] );
        ("points", J.Arr [ J.Obj [ ("x", J.int 41); ("y", J.Num 2.5) ] ]);
        ("tags", J.Arr [ J.Str "t1"; J.Str "t2" ]);
      ]
  in
  let text =
    Experiments.Report.render ~title:"synthetic" ~paper:[ ("delta", "16") ]
      ~host:[ ("cell-b", "wall=_") ] synthetic
  in
  check_leaves "synthetic" text synthetic;
  List.iter
    (fun s -> check_bool (Printf.sprintf "%S printed" s) true (contains text s))
    [
      "0.629"; "1234.5"; "12.35"; "inner.flag"; "inner.nothing"; "[0]";
      "2.50"; "[t1, t2]"; "16"; "wall=_";
    ];
  List.iter
    (fun (id, (o : Experiments.output)) -> check_leaves id o.text o.json)
    (Lazy.force quick_sections);
  (* the paper's three kernel figures stay beside the measured ones *)
  let t1 = (List.assoc "t1" (Lazy.force quick_sections)).text in
  List.iter
    (fun fig -> check_bool ("T1 paper figure " ^ fig) true (contains t1 fig))
    [ "0.14 ms"; "1.5 ms"; "0.629 ms" ]

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "ids, aliases and keys unique" `Quick
            test_registry_unique;
          Alcotest.test_case "quick sections round-trip" `Quick
            test_registry_json_roundtrip;
          Alcotest.test_case "reports print every leaf" `Quick
            test_report_prints_every_leaf;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "T1 kernel" `Quick test_t1_matches_paper;
          Alcotest.test_case "T2 network" `Quick test_t2_matches_paper;
          Alcotest.test_case "T3 invocation" `Quick test_t3_matches_paper;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "F1 sort trade-off" `Slow test_f1_shape;
          Alcotest.test_case "F2 consistency costs" `Quick test_f2_shape;
          Alcotest.test_case "F3 PET trade-off" `Quick test_f3_shape;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "write-fault latency" `Quick test_fanout_latency;
          Alcotest.test_case "deterministic" `Quick test_fanout_deterministic;
        ] );
      ( "batching",
        [
          Alcotest.test_case "flush acceptance" `Quick
            test_batching_acceptance;
          Alcotest.test_case "deterministic" `Quick
            test_batching_deterministic;
        ] );
      ( "transport",
        [
          Alcotest.test_case "selective and bypass acceptance" `Quick
            test_transport_acceptance;
          Alcotest.test_case "deterministic" `Quick
            test_transport_deterministic;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "mode A/B acceptance" `Quick
            test_consistency_acceptance;
          Alcotest.test_case "deterministic" `Quick
            test_consistency_deterministic;
        ] );
    ]
