(* The traced load run: install a tracer around one load cell — with
   the atomicity layer on, so binds pay a real lock/commit stage —
   and export everything the observability layer produces: the
   Chrome trace, the self-time stage table, and a snapshot of every
   node's metrics registry.

   The tracer only reads the sim clock, so the traced cell's
   simulated metrics are identical to an untraced run of the same
   cell and seed; the span tree itself is equally deterministic
   (pinned by the trace-determinism test). *)

type result = {
  point : Load.point;
  tracer : Obs.Tracer.t;
  chrome : string;  (* Chrome trace-event JSON *)
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
    registries_json = !registries_json;
    totals = !totals;
  }

(* The bench "obs" section: span counts, the self-time stage table
   over the traces rooted at a "request" span (the mean, then the
   trace at each percentile of total latency, by id so it can be found
   in the Chrome trace) and the cluster-wide counter rollup.  Means
   sum over the requests sorted by total; a percentile picks the
   floor rank. *)
let to_json r =
  let open Obs.Export in
  let reqs =
    List.filter (fun ts -> String.equal ts.root "request") (per_trace r.tracer)
    |> List.sort (fun a b -> Float.compare a.total_ms b.total_ms)
  in
  let sorted = Array.of_list reqs in
  let n = Array.length sorted in
  let mean f =
    if n = 0 then 0.0
    else List.fold_left (fun acc ts -> acc +. f ts) 0.0 reqs /. float_of_int n
  in
  let sum ~total_ms ~nspans st =
    [
      ("total_ms", Num total_ms); ("spans", int nspans);
      ("transport_ms", Num st.transport_ms); ("fault_ms", Num st.fault_ms);
      ("commit_ms", Num st.commit_ms); ("other_ms", Num st.other_ms);
    ]
  in
  let at p =
    if n = 0 then Null
    else
      let ts = sorted.(int_of_float (p /. 100.0 *. float_of_int (n - 1))) in
      Obj
        (sum ~total_ms:ts.total_ms ~nspans:ts.nspans ts.st
        @ [ ("trace", int ts.trace) ])
  in
  let mean_spans = List.fold_left (fun a ts -> a + ts.nspans) 0 reqs / max 1 n in
  let mean_st =
    {
      transport_ms = mean (fun ts -> ts.st.transport_ms);
      fault_ms = mean (fun ts -> ts.st.fault_ms);
      commit_ms = mean (fun ts -> ts.st.commit_ms);
      other_ms = mean (fun ts -> ts.st.other_ms);
    }
  in
  Obj
    [
      ("cell", Str r.point.Load.cell.label); ("traces", int n);
      ("spans", int (Obs.Tracer.span_count r.tracer));
      ( "mean",
        Obj (sum ~total_ms:(mean (fun ts -> ts.total_ms)) ~nspans:mean_spans mean_st)
      );
      ("p50", at 50.0); ("p95", at 95.0); ("p99", at 99.0);
      ("registry", Obj (List.map (fun (path, v) -> (path, int v)) r.totals));
    ]
