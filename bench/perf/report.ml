(* Metric definitions, the summary of repeated runs, the results file,
   and the comparison of two results files. *)

module J = Obs.Export

type better = Lower | Higher

type def = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** end-to-end only: the share of the baseline median by which
          the metric may get worse before it counts as a regression *)
}

let def ?(bound = 0.0) name unit better = { name; unit; better; bound }

(* The end-to-end metrics, in report order, with the bounds
   BENCHMARK.json carries.  Each bound holds the spread measured across
   ten seeds on a shared 2-core host (README.md): the host clocks drift
   with the neighbours' load, and the simulated tail moves with the
   seed, although every simulated metric repeats exactly at one seed. *)
let end_to_end =
  [
    def "setup_s" "s" Lower ~bound:0.25;
    def "host_s" "s" Lower ~bound:0.25;
    def "peak_rss_mb" "MB" Lower ~bound:0.10;
    def "sim_p50_ms" "ms" Lower ~bound:0.05;
    def "sim_mean_ms" "ms" Lower ~bound:0.15;
    def "sim_p99_ms" "ms" Lower ~bound:0.25;
    def "sim_tput" "ops/s" Higher ~bound:0.05;
    def "fail_frac" "ratio" Lower;
  ]

(* What the one-workload [bench] form reports.  sim_p50_ms stays out:
   names-read's unloaded lookup path is deterministic, so its median
   reads the same on every seed.  fail_frac is 0 when all is well and
   travels as the failure count instead. *)
let bench_end_to_end =
  List.filter
    (fun d -> not (List.mem d.name [ "sim_p50_ms"; "fail_frac" ]))
    end_to_end

(* Per-layer metrics, grouped by layer; [better] says which direction
   an optimisation of that layer should move them. *)
let per_layer =
  let lo n u = def n u Lower and hi n u = def n u Higher in
  [
    (* sim / gc *)
    lo "sim.events" "count";
    lo "sim.host_ns_per_event" "ns";
    lo "gc.minor_mwords" "Mword";
    lo "gc.major_mwords" "Mword";
    lo "gc.major_collections" "count";
    lo "gc.top_heap_mb" "MB";
    (* net / ratp *)
    lo "net.frames" "count";
    lo "net.mbytes" "MB";
    lo "net.drops" "count";
    lo "ratp.transactions" "count";
    lo "ratp.retrans" "count";
    lo "ratp.retrans_per_txn" "ratio";
    lo "ratp.nacks" "count";
    lo "ratp.rpc_self_ms" "ms";
    (* dsm *)
    lo "dsm.fetches" "count";
    lo "dsm.invals" "count";
    lo "dsm.downgrades" "count";
    lo "dsm.pages_served" "count";
    hi "dsm.loc_hit_ratio" "ratio";
    lo "dsm.fetch_self_ms" "ms";
    lo "dsm.inval_self_ms" "ms";
    lo "dsm.put_self_ms" "ms";
    (* store *)
    lo "disk.ops" "count";
    lo "disk.busy_s" "s";
    lo "wal.records" "count";
    lo "wal.flushes" "count";
    hi "wal.records_per_flush" "ratio";
    lo "wal.checkpoints" "count";
    lo "wal.truncated" "count";
    (* atomicity *)
    hi "atomicity.commits" "count";
    lo "atomicity.aborts" "count";
    hi "atomicity.commit_ratio" "ratio";
    lo "atomicity.lock_self_ms" "ms";
    lo "atomicity.2pc_self_ms" "ms";
    (* core *)
    lo "om.invocations" "count";
    lo "om.local_invokes" "count";
    lo "core.lookup_p50_ms" "ms";
    lo "core.lookup_p99_ms" "ms";
    lo "core.bind_p50_ms" "ms";
    lo "core.bind_p99_ms" "ms";
    lo "core.txn_p99_ms" "ms";
    lo "core.other_self_ms" "ms";
    (* obs *)
    lo "obs.spans" "count";
    lo "obs.trace_overhead" "ratio";
    (* probes *)
    lo "probe.engine_ns" "ns";
    lo "probe.engine_words" "words";
    lo "probe.stats_hadd_ns" "ns";
    lo "probe.stats_hadd_words" "words";
    lo "probe.ring_ns" "ns";
    lo "probe.ring_words" "words";
    lo "probe.ratp_null_ns" "ns";
    lo "probe.ratp_null_words" "words";
    lo "probe.wal_ns" "ns";
    lo "probe.wal_words" "words";
  ]

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads printed here are
   the ones a Python check over the same values computes. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Summaries *)

type summary = {
  def : def;
  values : float list;
  med : float;
  q1 : float;
  q3 : float;
}

let summarize def values =
  let q1, q3 = quartiles values in
  { def; values; med = median values; q1; q3 }

let spread s = if s.med = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.med

type workload = {
  wname : string;
  ops : int;
  failed : int;
  errors : string list;
  e2e : summary list;
  layers : (def * float) list;
}

(* ------------------------------------------------------------------ *)
(* JSON *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_json = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.sprintf "%.0f" f
  | J.Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | J.Num _ -> "null"
  | J.Str s -> quote s
  | J.Arr l -> "[" ^ String.concat ", " (List.map to_json l) ^ "]"
  | J.Obj l ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> quote k ^ ": " ^ to_json v) l)
      ^ "}"

let num f = J.Num f

let workload_json w =
  J.Obj
    [
      ("name", J.Str w.wname);
      ("ops", num (float_of_int w.ops));
      ("failed", num (float_of_int w.failed));
      ("errors", J.Arr (List.map (fun e -> J.Str e) w.errors));
      ( "end_to_end",
        J.Obj
          (List.map
             (fun s ->
               ( s.def.name,
                 J.Obj
                   [
                     ("unit", J.Str s.def.unit);
                     ("median", num s.med);
                     ("q1", num s.q1);
                     ("q3", num s.q3);
                     ("values", J.Arr (List.map num s.values));
                   ] ))
             w.e2e) );
      ( "per_layer",
        J.Obj
          (List.map
             (fun (d, v) ->
               (d.name, J.Obj [ ("unit", J.Str d.unit); ("value", num v) ]))
             w.layers) );
    ]

let results_json ~seed ~reps workloads =
  to_json
    (J.Obj
       [
         ("seed", num (float_of_int seed));
         ("reps", num (float_of_int reps));
         ("workloads", J.Arr (List.map workload_json workloads));
       ])

let field path v =
  List.fold_left
    (fun acc k -> Option.bind acc (J.member k))
    (Some v) path

(* The end-to-end values of every workload in a results file, keyed by
   workload then metric. *)
let load_values text =
  match J.parse text with
  | Error e -> Error e
  | Ok v -> (
      match field [ "workloads" ] v with
      | Some (J.Arr ws) ->
          Ok
            (List.filter_map
               (fun w ->
                 match (field [ "name" ] w, field [ "end_to_end" ] w) with
                 | Some (J.Str name), Some (J.Obj metrics) ->
                     let values = function
                       | J.Num f -> Some f
                       | _ -> None
                     in
                     Some
                       ( name,
                         List.map
                           (fun (m, o) ->
                             ( m,
                               match field [ "values" ] o with
                               | Some (J.Arr l) -> List.filter_map values l
                               | _ -> [] ))
                           metrics )
                 | _ -> None)
               ws)
      | _ -> Error "no workloads array")

(* ------------------------------------------------------------------ *)
(* Printing *)

let print_workload w =
  Printf.printf "%s: %d ops, %d failed%s\n" w.wname w.ops w.failed
    (if w.errors = [] then "" else ", CHECKS FAILED");
  List.iter (fun e -> Printf.printf "  check failed: %s\n" e) w.errors;
  List.iter
    (fun s ->
      Printf.printf "  %-14s %14.6g %-6s [q1 %.6g, q3 %.6g]\n" s.def.name s.med
        s.def.unit s.q1 s.q3)
    w.e2e;
  List.iter
    (fun (d, v) -> Printf.printf "  %-26s %14.6g %s\n" d.name v d.unit)
    w.layers

(* ------------------------------------------------------------------ *)
(* Comparison *)

type verdict = Better | Worse | Within | Unresolved

let verdict_label = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within bound"
  | Unresolved -> "unresolved"

(* [base] against [cand] for one metric.  A metric whose quartile
   spread exceeds its bound on either side cannot be judged, unless
   every candidate value beats every baseline value. *)
let verdict def ~base ~cand =
  let sign = match def.better with Lower -> 1.0 | Higher -> -1.0 in
  (* relative change, or the absolute one from a zero baseline *)
  let change =
    sign
    *.
    if base.med = 0.0 then cand.med
    else (cand.med -. base.med) /. Float.abs base.med
  in
  let beats c b = sign *. (c -. b) < 0.0 in
  let all_better =
    List.for_all (fun c -> List.for_all (beats c) base.values) cand.values
  in
  if spread base > def.bound || spread cand > def.bound then
    if all_better then Better else Unresolved
  else if change > def.bound then Worse
  else if change < -.def.bound then Better
  else Within

(* Returns the number of regressions. *)
let compare_files ~base ~cand =
  let worse = ref 0 in
  Printf.printf "%-12s %-12s %14s %14s %9s  %s\n" "workload" "metric"
    "base median" "new median" "change" "verdict";
  List.iter
    (fun (wname, base_metrics) ->
      match List.assoc_opt wname cand with
      | None -> Printf.printf "%-12s (missing from the new results)\n" wname
      | Some cand_metrics ->
          List.iter
            (fun d ->
              match
                ( List.assoc_opt d.name base_metrics,
                  List.assoc_opt d.name cand_metrics )
              with
              | Some (_ :: _ as b), Some (_ :: _ as c) ->
                  let base = summarize d b and cand = summarize d c in
                  let v = verdict d ~base ~cand in
                  if v = Worse then incr worse;
                  Printf.printf
                    "%-12s %-12s %14.6g %14.6g %+8.2f%%  %s  (q1-q3 %.6g-%.6g \
                     vs %.6g-%.6g, bound %.0f%%)\n"
                    wname d.name base.med cand.med
                    (if base.med = 0.0 then 0.0
                     else 100.0 *. (cand.med -. base.med) /. Float.abs base.med)
                    (verdict_label v) base.q1 base.q3 cand.q1 cand.q3
                    (100.0 *. d.bound)
              | _ -> Printf.printf "%-12s %-12s (no values)\n" wname d.name)
            end_to_end)
    base;
  !worse
