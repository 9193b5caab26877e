(* Per-layer metrics of one traced run.

   Counters are registry totals ([Clouds.Telemetry.registries]) and
   network totals over the measured window; self times come from the
   spans: a span's self time is its duration minus the part its
   children cover, summed per span name and divided by the number of
   requests, so each is the mean simulated milliseconds one request
   spends in that layer's own code and waits. *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let self_ms_by_name tracer =
  let n = Obs.Tracer.span_count tracer in
  let children = Array.make (max n 1) 0.0 in
  Obs.Tracer.iter tracer (fun sp ->
      if sp.Obs.Tracer.parent >= 0 then
        children.(sp.parent) <-
          children.(sp.parent) +. Obs.Tracer.duration_ms sp);
  let self = Hashtbl.create 32 in
  Obs.Tracer.iter tracer (fun sp ->
      let s =
        Float.max 0.0 (Obs.Tracer.duration_ms sp -. children.(sp.Obs.Tracer.id))
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt self sp.name) in
      Hashtbl.replace self sp.name (prev +. s));
  self

let durations tracer name =
  let s = Sim.Stats.series name in
  Obs.Tracer.iter tracer (fun sp ->
      if String.equal sp.Obs.Tracer.name name then
        Sim.Stats.add s (Obs.Tracer.duration_ms sp));
  s

let of_trace tracer ~ops ~counter ~frames ~bytes ~drops ~events =
  let self = self_ms_by_name tracer in
  let per_request pred =
    let total =
      Hashtbl.fold (fun name ms acc -> if pred name then acc +. ms else acc)
        self 0.0
    in
    total /. float_of_int (max 1 ops)
  in
  let named n name = String.equal name n in
  let prefixed p name = String.starts_with ~prefix:p name in
  let requests =
    List.filter
      (fun ts -> String.equal ts.Obs.Export.root "request")
      (Obs.Export.per_trace tracer)
  in
  let other_ms =
    List.fold_left (fun acc ts -> acc +. ts.Obs.Export.st.other_ms) 0.0 requests
    /. float_of_int (max 1 (List.length requests))
  in
  let lookup = durations tracer "bench.lookup"
  and bind = durations tracer "bench.bind"
  and txn = durations tracer "bench.txn" in
  let c = counter in
  let n = float_of_int in
  [
    ("sim.events", n events);
    ("net.frames", n frames);
    ("net.mbytes", n bytes /. 1e6);
    ("net.drops", n drops);
    ("ratp.transactions", n (c "ratp/transactions"));
    ("ratp.retrans", n (c "ratp/retrans"));
    ("ratp.retrans_per_txn", ratio (c "ratp/retrans") (c "ratp/transactions"));
    ("ratp.nacks", n (c "ratp/nacks"));
    ("ratp.rpc_self_ms", per_request (named "rpc"));
    ("dsm.fetches", n (c "dsmc/fetches"));
    ("dsm.invals", n (c "dsm/invalidations"));
    ("dsm.downgrades", n (c "dsm/downgrades"));
    ("dsm.pages_served", n (c "dsm/pages_served"));
    ( "dsm.loc_hit_ratio",
      ratio (c "dsmc/loc_hits") (c "dsmc/loc_hits" + c "dsmc/loc_misses") );
    ("dsm.fetch_self_ms", per_request (named "dsm.fetch"));
    ("dsm.inval_self_ms", per_request (named "dsm.inval"));
    ("dsm.put_self_ms", per_request (named "dsm.put"));
    ("disk.ops", n (c "disk/ops"));
    ("disk.busy_s", n (c "disk/busy_us") /. 1e6);
    ("wal.records", n (c "wal/records"));
    ("wal.flushes", n (c "wal/flushes"));
    ("wal.records_per_flush", ratio (c "wal/records") (c "wal/flushes"));
    ("wal.checkpoints", n (c "wal/checkpoints"));
    ("wal.truncated", n (c "wal/truncated"));
    ("atomicity.commits", n (c "atomicity/commits"));
    ("atomicity.aborts", n (c "atomicity/aborts"));
    ( "atomicity.commit_ratio",
      ratio (c "atomicity/commits")
        (c "atomicity/commits" + c "atomicity/aborts") );
    ("atomicity.lock_self_ms", per_request (named "txn.lock"));
    ("atomicity.2pc_self_ms", per_request (prefixed "2pc."));
    ("om.invocations", n (c "om/invocations"));
    ("om.local_invokes", n (c "om/local_invokes"));
    ("core.lookup_p50_ms", Sim.Stats.percentile lookup 50.0);
    ("core.lookup_p99_ms", Sim.Stats.percentile lookup 99.0);
    ("core.bind_p50_ms", Sim.Stats.percentile bind 50.0);
    ("core.bind_p99_ms", Sim.Stats.percentile bind 99.0);
    ("core.txn_p99_ms", Sim.Stats.percentile txn 99.0);
    ("core.other_self_ms", other_ms);
    ("obs.spans", n (Obs.Tracer.span_count tracer));
  ]
