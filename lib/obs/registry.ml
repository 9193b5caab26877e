(* A named tree of live metric handles.

   Components keep updating their own [Sim.Stats] counters and publish
   them as handle lists, each handle named by its path; a registry
   holds one node's lists so one snapshot can walk everything it
   exposes, and [count]/[hist] read a single path out of a list.
   Snapshots render to JSON with sorted keys and fixed float
   formatting, so fixed-seed runs are byte-identical. *)

(* [items] is sorted by path and holds each path once. *)
type t = { label : string; items : Sim.Stats.metric list }

let by_name a b = String.compare (Sim.Stats.name a) (Sim.Stats.name b)

let make label metrics =
  let items = List.stable_sort by_name metrics in
  let rec refuse_duplicates = function
    | a :: (b :: _ as rest) ->
        if by_name a b = 0 then
          invalid_arg
            (Printf.sprintf "Registry.make: %s is registered twice"
               (Sim.Stats.name a));
        refuse_duplicates rest
    | _ -> ()
  in
  refuse_duplicates items;
  { label; items }

let find metrics path =
  match
    List.find_opt (fun m -> String.equal (Sim.Stats.name m) path) metrics
  with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Registry: no metric at %s" path)

let count metrics path =
  match find metrics path with
  | Sim.Stats.Counter c -> Sim.Stats.value c
  | Keyed _ | Hist _ ->
      invalid_arg (Printf.sprintf "Registry.count: %s is not a counter" path)

let hist metrics path =
  match find metrics path with
  | Sim.Stats.Hist h -> h
  | Counter _ | Keyed _ ->
      invalid_arg (Printf.sprintf "Registry.hist: %s is not a histogram" path)

(* Sum of each counter by path across registries — the cluster-wide
   rollup bench reports.  Keyed families and histograms stay in the
   per-node snapshot: a family splits a counter that is already
   rolled up, or holds a gauge whose sum means nothing. *)
let totals regs =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun r ->
      List.iter
        (fun m ->
          match m with
          | Sim.Stats.Counter c ->
              let path = Sim.Stats.name m in
              let cur = Option.value ~default:0 (Hashtbl.find_opt acc path) in
              Hashtbl.replace acc path (cur + Sim.Stats.value c)
          | Keyed _ | Hist _ -> ())
        r.items)
    regs;
  Hashtbl.fold (fun path v l -> (path, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- JSON rendering, through the shared Export printer ---- *)

(* A histogram's summary keys carry no unit: a time histogram names
   its unit in its path ("atomicity/commit_ms"), and the others hold
   queue depths and batch sizes. *)
let metric_json = function
  | Sim.Stats.Counter c -> Export.int (Sim.Stats.value c)
  | Keyed k ->
      Export.Obj
        (List.map (fun (key, v) -> (string_of_int key, Export.int v)) (Sim.Stats.kitems k))
  | Hist h ->
      let p q = Export.Num (Sim.Stats.hist_percentile h q) in
      Export.Obj
        [
          ("n", Export.int (Sim.Stats.hist_n h));
          ("mean", Export.Num (Sim.Stats.hist_mean h)); ("p50", p 50.0);
          ("p95", p 95.0); ("p99", p 99.0);
          ("max", Export.Num (Sim.Stats.hist_max h));
        ]

let snapshot_json regs =
  let node t =
    Export.Obj
      [
        ("node", Export.Str t.label);
        ( "metrics",
          Export.Obj
            (List.map (fun m -> (Sim.Stats.name m, metric_json m)) t.items) );
      ]
  in
  Export.to_string (Export.Arr (List.map node regs))
