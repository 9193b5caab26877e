(* A named tree of live metric handles.

   Components keep updating their own [Sim.Stats] counters and publish
   them as (path, handle) lists; a registry holds one node's lists so
   one snapshot can walk everything it exposes, and [count]/[hist] read
   a single path out of a list.  Snapshots render to JSON with
   sorted keys and fixed float formatting, so fixed-seed runs are
   byte-identical. *)

type metric =
  | Counter of Sim.Stats.counter
  | Keyed of Sim.Stats.keyed
  | Hist of Sim.Stats.hist

type t = { label : string; tbl : (string, metric) Hashtbl.t }

let create label = { label; tbl = Hashtbl.create 32 }
let register t path m =
  if Hashtbl.mem t.tbl path then
    invalid_arg
      (Printf.sprintf "Registry.register: %s is already registered" path);
  Hashtbl.replace t.tbl path m

let register_all t ms = List.iter (fun (path, m) -> register t path m) ms

let find metrics path =
  match List.assoc_opt path metrics with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Registry: no metric at %s" path)

let count metrics path =
  match find metrics path with
  | Counter c -> Sim.Stats.value c
  | Keyed _ | Hist _ ->
      invalid_arg (Printf.sprintf "Registry.count: %s is not a counter" path)

let hist metrics path =
  match find metrics path with
  | Hist h -> h
  | Counter _ | Keyed _ ->
      invalid_arg (Printf.sprintf "Registry.hist: %s is not a histogram" path)

let items t =
  Hashtbl.fold (fun path m acc -> (path, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Sum of integer-valued metrics (counters and keyed families) by
   path across registries — the cluster-wide rollup bench reports. *)
let totals regs =
  let acc = Hashtbl.create 32 in
  let bump path v =
    let cur = Option.value ~default:0 (Hashtbl.find_opt acc path) in
    Hashtbl.replace acc path (cur + v)
  in
  List.iter
    (fun r ->
      List.iter
        (fun (path, m) ->
          match m with
          | Counter c -> bump path (Sim.Stats.value c)
          | Keyed k ->
              List.iter (fun (_, v) -> bump path v) (Sim.Stats.kitems k)
          | Hist _ -> ())
        (items r))
    regs;
  Hashtbl.fold (fun path v l -> (path, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- JSON rendering, through the shared Export printer ---- *)

let metric_json m =
  let dist ~n ~mean ~p ~max =
    Export.(
      Obj
        [
          ("n", int n); ("mean_ms", Num mean); ("p50_ms", Num (p 50.0));
          ("p95_ms", Num (p 95.0)); ("p99_ms", Num (p 99.0)); ("max_ms", Num max);
        ])
  in
  match m with
  | Counter c -> Export.int (Sim.Stats.value c)
  | Keyed k ->
      Export.Obj
        (List.map (fun (key, v) -> (string_of_int key, Export.int v)) (Sim.Stats.kitems k))
  | Hist h ->
      dist ~n:(Sim.Stats.hist_n h) ~mean:(Sim.Stats.hist_mean h)
        ~p:(Sim.Stats.hist_percentile h) ~max:(Sim.Stats.hist_max h)

let snapshot_json regs =
  let node t =
    Export.Obj
      [
        ("node", Export.Str t.label);
        ( "metrics",
          Export.Obj (List.map (fun (path, m) -> (path, metric_json m)) (items t)) );
      ]
  in
  Export.to_string (Export.Arr (List.map node regs))
