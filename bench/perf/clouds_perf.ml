(* clouds_perf: host and simulated cost of the Clouds reproduction on
   four workloads, with per-layer attribution.

     clouds_perf run [--seed 42] [--reps 5] [--smoke] [--out FILE]
         every workload, --reps untraced runs each (round robin across
         workloads) plus one traced run each and the layer probes;
         prints every metric, checks outputs, and writes FILE
         (default _build/perf/results.json)
     clouds_perf compare BASE.json NEW.json
         per-metric verdicts; exits 1 on a regression
     clouds_perf bench --workload W --seed N --seconds S --trace 0|1
         one workload, repeated for S seconds; the last stdout line is
         one JSON object of end-to-end (trace 0) or per-layer (trace 1)
         metrics

   Every (workload, run) executes in a fresh child process of this
   executable with OCAMLRUNPARAM cleared, one child at a time, so runs
   share no heap and no GC tuning; the child sends its result back on
   stdout with [Marshal]. *)

(* ------------------------------------------------------------------ *)
(* Child processes *)

module J = Obs.Export

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
           || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
  |> Array.of_list

(* Run this executable with [args] and read back the one value it
   marshals to stdout. *)
let spawn args : 'a =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (child_env ()) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let v = try Some (Marshal.from_channel ic) with End_of_file -> None in
  close_in ic;
  match (snd (Unix.waitpid [] pid), v) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> failwith ("child process failed: " ^ String.concat " " args)

let run_child ~seed ~traced ~smoke (w : Workload.t) : Workload.result =
  spawn
    [
      "child"; w.name; string_of_int seed; string_of_bool traced;
      string_of_bool smoke;
    ]

let probes_child ~smoke : (string * float) list =
  spawn [ "probes"; string_of_bool smoke ]

let reply v =
  Marshal.to_channel stdout v [];
  flush stdout

(* ------------------------------------------------------------------ *)
(* Aggregation *)

(* Simulated metrics pool the requests of one run per distinct seed;
   host metrics are medians over every untraced run. *)
let sim_metrics (runs : Workload.result list) =
  let lat = Sim.Stats.series "latency_ms" in
  List.iter
    (fun (r : Workload.result) -> Array.iter (Sim.Stats.add lat) r.latencies)
    runs;
  let ops = float_of_int (Sim.Stats.n lat) in
  let failed = List.fold_left (fun a r -> a + r.Workload.failed) 0 runs in
  let window_s =
    List.fold_left (fun a r -> a +. r.Workload.window_ms) 0.0 runs /. 1000.0
  in
  [
    ("sim_p50_ms", Sim.Stats.percentile lat 50.0);
    ("sim_mean_ms", Sim.Stats.mean lat);
    ("sim_p99_ms", Sim.Stats.percentile lat 99.0);
    ("sim_tput", ops /. window_s);
    ("fail_frac", float_of_int failed /. ops);
  ]

(* One workload's summary from its untraced runs, its traced run (if
   any) and the probes (if any).  Every run of a seed, traced or not,
   must simulate exactly the same requests. *)
let aggregate (w : Workload.t) (runs : Workload.result list) traced probes =
  let all = runs @ Option.to_list traced in
  let seeds =
    List.sort_uniq compare (List.map (fun (r : Workload.result) -> r.seed) runs)
  in
  let sim_runs =
    List.map
      (fun s -> List.find (fun (r : Workload.result) -> r.seed = s) runs)
      seeds
  in
  let same (a : Workload.result) (b : Workload.result) =
    a.seed = b.seed && a.failed = b.failed && a.window_ms = b.window_ms
    && a.latencies = b.latencies
  in
  let deterministic =
    List.for_all (fun r -> List.exists (same r) sim_runs) all
  in
  let errors =
    List.sort_uniq compare
      (List.concat_map (fun (r : Workload.result) -> r.errors) all)
    @
    if deterministic then []
    else [ "simulated results differ between runs of one seed" ]
  in
  let sim = sim_metrics sim_runs in
  let values name =
    match List.assoc_opt name sim with
    | Some v -> [ v ]
    | None ->
        List.map (fun (r : Workload.result) -> List.assoc name r.host) runs
  in
  let e2e =
    List.map
      (fun (d : Report.def) -> Report.summarize d (values d.name))
      Report.end_to_end
  in
  let host_s = Report.median (values "host_s") in
  let median_layer name =
    Report.median
      (List.map (fun (r : Workload.result) -> List.assoc name r.layers) runs)
  in
  let gc =
    List.map (fun (name, _) -> (name, median_layer name)) (List.hd runs).layers
  in
  let traced_layers =
    match traced with
    | None -> []
    | Some t ->
        let events = List.assoc "sim.events" t.layers in
        ("sim.host_ns_per_event", host_s *. 1e9 /. events)
        :: ("obs.trace_overhead", List.assoc "host_s" t.host /. host_s)
        :: List.filter (fun (k, _) -> not (List.mem_assoc k gc)) t.layers
  in
  let measured = gc @ traced_layers @ Option.value ~default:[] probes in
  let sum f = List.fold_left (fun a r -> a + f r) 0 sim_runs in
  {
    Report.wname = w.name;
    ops = sum (fun r -> Array.length r.latencies);
    failed = sum (fun r -> r.failed);
    errors;
    e2e;
    layers =
      List.filter_map
        (fun (d : Report.def) ->
          Option.map (fun v -> (d, v)) (List.assoc_opt d.name measured))
        Report.per_layer;
  }

(* ------------------------------------------------------------------ *)
(* run *)

let write_file path text =
  let rec mkdir_p dir =
    if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc text)

let cmd_run ~seed ~reps ~smoke ~out =
  let workloads =
    if smoke then List.map Workload.smoke Workload.all else Workload.all
  in
  let runs = Hashtbl.create 8 in
  (* round robin, so drift on a shared host hits every workload alike *)
  for _ = 1 to reps do
    List.iter
      (fun (w : Workload.t) ->
        let r = run_child ~seed ~traced:false ~smoke w in
        Hashtbl.replace runs w.name
          (Option.value ~default:[] (Hashtbl.find_opt runs w.name) @ [ r ]))
      workloads
  done;
  let probes = probes_child ~smoke in
  let summaries =
    List.map
      (fun (w : Workload.t) ->
        let traced = run_child ~seed ~traced:true ~smoke w in
        aggregate w (Hashtbl.find runs w.name) (Some traced) (Some probes))
      workloads
  in
  List.iter Report.print_workload summaries;
  let json = Report.results_json ~seed ~reps summaries in
  (match Report.load_values json with
  | Ok l when List.length l = List.length workloads -> ()
  | Ok _ -> failwith "results JSON lost a workload"
  | Error e -> failwith ("results JSON does not parse: " ^ e));
  (match out with
  | Some path ->
      write_file path json;
      Printf.printf "wrote %s\n" path
  | None -> ());
  let bad =
    List.filter
      (fun (s : Report.workload) -> s.errors <> [] || s.failed > 0)
      summaries
  in
  if bad <> [] then begin
    List.iter
      (fun (s : Report.workload) ->
        List.iter (Printf.eprintf "%s: check failed: %s\n" s.wname) s.errors;
        Printf.eprintf "%s: %d of %d requests failed\n" s.wname s.failed s.ops)
      bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* bench: the one-workload, fixed-duration form *)

let cmd_bench ~workload ~seed ~seconds ~trace =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ workload);
        exit 2
  in
  (* Runs cycle over three seeds derived from [seed]: the simulated
     metrics pool their requests, which steadies the tail across seeds,
     and every further run repeats one of them for the host medians. *)
  let sub_seed j = (seed * 16) + (j mod 3) in
  let t0 = Unix.gettimeofday () in
  let rec loop j acc =
    let r = run_child ~seed:(sub_seed j) ~traced:false ~smoke:false w in
    let acc = r :: acc in
    if j < 2 || Unix.gettimeofday () -. t0 < seconds then loop (j + 1) acc
    else List.rev acc
  in
  let runs = loop 0 [] in
  let traced, probes =
    if trace then
      ( Some (run_child ~seed:(sub_seed 0) ~traced:true ~smoke:false w),
        Some (probes_child ~smoke:false) )
    else (None, None)
  in
  let s = aggregate w runs traced probes in
  let all = runs @ Option.to_list traced in
  let total f =
    float_of_int
      (List.fold_left (fun acc (r : Workload.result) -> acc + f r) 0 all)
  in
  let metric (d : Report.def) v =
    (d.name, J.Obj [ ("value", J.Num v); ("unit", J.Str d.unit) ])
  in
  let metrics =
    if trace then List.map (fun (d, v) -> metric d v) s.layers
    else
      List.filter_map
        (fun (x : Report.summary) ->
          if List.memq x.def Report.bench_end_to_end then
            Some (metric x.def x.med)
          else None)
        s.e2e
  in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) s.errors;
  print_endline
    (Report.to_json
       (J.Obj
          [
            ("correct", J.Bool (s.errors = []));
            ("attempted", J.Num (total (fun r -> Array.length r.latencies)));
            ("failed", J.Num (total (fun r -> r.failed)));
            ("metrics", J.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* compare *)

let cmd_compare base_path cand_path =
  let load path =
    match
      Report.load_values (In_channel.with_open_text path In_channel.input_all)
    with
    | Ok v -> v
    | Error e ->
        prerr_endline (path ^ ": " ^ e);
        exit 2
  in
  let worse =
    Report.compare_files ~base:(load base_path) ~cand:(load cand_path)
  in
  if worse > 0 then begin
    Printf.printf "%d regression(s)\n" worse;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: clouds_perf run [--seed N] [--reps N] [--smoke] [--out FILE]\n\
    \       clouds_perf compare BASE.json NEW.json\n\
    \       clouds_perf bench --workload W --seed N --seconds S --trace 0|1";
  exit 2

(* [--flag value] pairs and bare [--flag]s, in any order. *)
let rec flags = function
  | [] -> []
  | "--smoke" :: rest -> ("--smoke", "") :: flags rest
  | f :: v :: rest when String.starts_with ~prefix:"--" f ->
      (f, v) :: flags rest
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "child"; name; seed; traced; smoke ] ->
      let w = Option.get (Workload.find name) in
      let w = if bool_of_string smoke then Workload.smoke w else w in
      reply
        (Workload.run ~seed:(int_of_string seed)
           ~traced:(bool_of_string traced) w)
  | [ "probes"; smoke ] ->
      reply (Probes.run ~scale:(if bool_of_string smoke then 50 else 1))
  | [ "compare"; a; b ] -> cmd_compare a b
  | "run" :: rest ->
      let fl = flags rest in
      let get k d = Option.value ~default:d (List.assoc_opt k fl) in
      let smoke = List.mem_assoc "--smoke" fl in
      cmd_run
        ~seed:(int_of_string (get "--seed" "42"))
        ~reps:(int_of_string (get "--reps" (if smoke then "1" else "5")))
        ~smoke
        ~out:
          (match List.assoc_opt "--out" fl with
          | Some p -> Some p
          | None -> if smoke then None else Some "_build/perf/results.json")
  | "bench" :: rest -> (
      let fl = flags rest in
      match
        ( List.assoc_opt "--workload" fl,
          List.assoc_opt "--seed" fl,
          List.assoc_opt "--seconds" fl,
          List.assoc_opt "--trace" fl )
      with
      | Some workload, Some seed, Some seconds, Some trace ->
          cmd_bench ~workload ~seed:(int_of_string seed)
            ~seconds:(float_of_string seconds) ~trace:(trace = "1")
      | _ -> usage ())
  | _ -> usage ()
