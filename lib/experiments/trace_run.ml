(* The traced load run: install a tracer around one load cell — with
   the atomicity layer on, so binds pay a real lock/commit stage —
   and export everything the observability layer produces: the
   Chrome trace, the critical-path report, and a snapshot of every
   node's metrics registry.

   The tracer only reads the sim clock, so the traced cell's
   simulated metrics are identical to an untraced run of the same
   cell and seed; the span tree itself is equally deterministic
   (pinned by the trace-determinism test). *)

type result = {
  point : Load.point;
  tracer : Obs.Tracer.t;
  chrome : string;  (* Chrome trace-event JSON *)
  report : string;  (* text critical-path report *)
  summary : Obs.Export.summary;  (* machine-readable stage breakdown *)
  registries_json : string;  (* metrics-registry snapshot *)
  totals : (string * int) list;  (* cluster-wide counter rollup *)
}

let default_cell = List.hd Load.ab_cells (* mid-shard *)

let run ?(seed = 42) ?(cell = default_cell) () =
  let tracer = Obs.Tracer.create () in
  let registries_json = ref "[]" in
  let totals = ref [] in
  Obs.Tracer.install tracer;
  let point =
    Fun.protect ~finally:Obs.Tracer.uninstall (fun () ->
        Load.run_cell ~seed ~atomicity:true
          ~observer:(fun cl om atm ->
            let extra =
              match atm with
              | Some a -> Atomicity.Manager.metrics a
              | None -> []
            in
            let regs = Clouds.Telemetry.registries ~om ~extra cl in
            registries_json := Obs.Registry.snapshot_json regs;
            totals := Obs.Registry.totals regs)
          cell)
  in
  {
    point;
    tracer;
    chrome = Obs.Export.chrome_json tracer;
    report = Obs.Export.report tracer;
    summary = Obs.Export.summarize tracer;
    registries_json = !registries_json;
    totals = !totals;
  }

(* The bench "obs" section: span counts, the critical-path stage
   decomposition (mean, then the trace at each percentile, by id so it
   can be found in the Chrome trace) and the cluster-wide registry
   rollup. *)
let to_json r =
  let open Obs.Export in
  let stages st =
    [
      ("transport_ms", Num st.transport_ms); ("fault_ms", Num st.fault_ms);
      ("commit_ms", Num st.commit_ms); ("other_ms", Num st.other_ms);
    ]
  in
  let sum ts =
    ("total_ms", Num ts.total_ms) :: ("spans", int ts.nspans) :: stages ts.st
  in
  let pick = function
    | None -> Null
    | Some ts -> Obj (sum ts @ [ ("trace", int ts.trace) ])
  in
  let s = r.summary in
  Obj
    [
      ("cell", Str r.point.Load.cell.label); ("traces", int s.traces);
      ("spans", int s.spans); ("mean", Obj (sum s.mean));
      ("p50", pick s.p50); ("p95", pick s.p95); ("p99", pick s.p99);
      ("registry", Obj (List.map (fun (path, v) -> (path, int v)) r.totals));
    ]
