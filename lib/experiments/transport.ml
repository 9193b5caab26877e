(* RaTP transport fast-path A/B (DESIGN.md §12).

   Two measurements:

   1. Bulk transfers under loss.  A client echoes messages of 1.4 K /
      8 K / 64 K bytes off a server while a uniform per-frame loss
      probability (0 / 1 / 5 / 10 %) chews on the segment, with
      selective and with full-burst retransmission.  The headline
      metric is retransmitted payload bytes: full-burst retransmission
      resends every fragment of a 47-fragment message to recover one
      lost frame, selective resends only what the peer is missing.

   2. Same-node invocation bypass.  [Object_manager.invoke_remote]
      whose target is the invoking node skips RaTP entirely; we time
      the same warm invocation through the bypass and through a real
      transport round trip to a second compute server.

   The cluster runs the fast interconnect used by the page-batching
   experiment (100 Mbit/s, light per-frame host costs), not the
   calibrated 1988 network: retransmission policy matters most when
   messages are many fragments long and the wire is not the
   bottleneck.  The calibrated experiments (T1-T3) are untouched.
   Everything draws from the simulation RNG, so each (grid, seed)
   pair reproduces exactly. *)

module E = Ratp.Endpoint

let ratp (node : Ra.Node.t) path =
  Obs.Registry.count (E.metrics node.endpoint) path

type Ratp.Packet.body += Blob of int

type point = {
  loss_pct : int;
  size : int;  (** request bytes; the reply echoes the same size *)
  selective : bool;
  calls : int;
  oks : int;
  timeouts : int;
  elapsed_ms : float;  (** total time for the call sequence *)
  retrans : int;  (** client retransmission events (probes included) *)
  retrans_bytes : int;  (** payload bytes resent, both directions *)
  nacks : int;  (** server bitmap replies *)
  rto_ms : float;  (** client's final RTO estimate for the server *)
}

type bypass = {
  invocations : int;
  local_ms : float;  (** mean warm invocation, same-node bypass *)
  remote_ms : float;  (** mean warm invocation, RaTP round trip *)
  local_invokes : int;  (** bypass counter after the local loop *)
}

type result = { points : point list; bypass : bypass }

let transfer_service = 31

(* Generous attempt budget: at 10 % loss the point of the experiment
   is how much each policy spends to finish, not whether it gives up. *)
let ratp_config ~selective =
  { E.default_config with selective_retransmit = selective; max_attempts = 12 }

let measure_point ~loss_pct ~size ~selective ~calls =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng ~config:Fixtures.ether_100m () in
      let cfg = ratp_config ~selective in
      let server =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:cfg ()
      in
      let client =
        Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute ~ratp_config:cfg ()
      in
      E.serve server.Ra.Node.endpoint ~service:transfer_service
        (fun ~src:_ body ->
          match body with Blob n -> (Blob n, n) | _ -> (Ratp.Packet.Empty, 0));
      Net.Fault.set_drop_probability
        (Net.Ethernet.fault ether)
        (float_of_int loss_pct /. 100.0);
      let oks = ref 0 and timeouts = ref 0 in
      let t0 = Sim.now () in
      for _ = 1 to calls do
        match
          E.call client.Ra.Node.endpoint ~dst:1 ~service:transfer_service
            ~size (Blob size)
        with
        | Ok _ -> incr oks
        | Error E.Timeout -> incr timeouts
      done;
      let elapsed_ms = Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0) in
      let rto_ms =
        match
          List.find_opt
            (fun p -> p.E.peer = 1)
            (E.peer_stats client.Ra.Node.endpoint)
        with
        | Some p -> p.E.rto_ms
        | None -> 0.0
      in
      {
        loss_pct;
        size;
        selective;
        calls;
        oks = !oks;
        timeouts = !timeouts;
        elapsed_ms;
        retrans = ratp client "ratp/retrans";
        retrans_bytes =
          ratp client "ratp/retrans_bytes" + ratp server "ratp/retrans_bytes";
        nacks = ratp server "ratp/nacks";
        rto_ms;
      })

let measure_bypass ~invocations =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:2 ~data:1 ~workstations:0 () in
      Clouds.Cluster.register_class sys.Clouds.cluster
        (Fixtures.null_cls "transport-null");
      let n0 = sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(0) in
      let n1 = sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(1) in
      let obj =
        Clouds.Object_manager.create_object sys.Clouds.om ~on:n0
          ~class_name:"transport-null" Clouds.Value.Unit
      in
      let dispatch ~target =
        ignore
          (Clouds.Object_manager.invoke_remote sys.Clouds.om ~from:n0
             ~target ~thread_id:0 ~origin:None ~txn:None ~obj ~entry:"null"
             Clouds.Value.Unit)
      in
      (* warm both compute servers so neither loop pays activation *)
      dispatch ~target:n0.Ra.Node.id;
      dispatch ~target:n1.Ra.Node.id;
      let time_loop ~target =
        let t0 = Sim.now () in
        for _ = 1 to invocations do
          dispatch ~target
        done;
        Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0)
        /. float_of_int invocations
      in
      let local_invokes () =
        Obs.Registry.count
          (Clouds.Object_manager.metrics sys.Clouds.om)
          "om/local_invokes"
      in
      let before = local_invokes () in
      let local_ms = time_loop ~target:n0.Ra.Node.id in
      let local_invokes = local_invokes () - before in
      let remote_ms = time_loop ~target:n1.Ra.Node.id in
      { invocations; local_ms; remote_ms; local_invokes })

let run ?(losses = [ 0; 1; 5; 10 ]) ?(sizes = [ 1400; 8192; 65536 ])
    ?(calls = 5) ?(invocations = 50) () =
  let points =
    List.concat_map
      (fun loss_pct ->
        List.concat_map
          (fun size ->
            List.map
              (fun selective -> measure_point ~loss_pct ~size ~selective ~calls)
              [ false; true ])
          sizes)
      losses
  in
  { points; bypass = measure_bypass ~invocations }

let to_json (r : result) =
  let open Obs.Export in
  let point p =
    Obj
      [
        ("loss_pct", int p.loss_pct); ("size", int p.size);
        ("selective", Bool p.selective); ("calls", int p.calls);
        ("oks", int p.oks);
        ("timeouts", int p.timeouts); ("elapsed_ms", Num p.elapsed_ms);
        ("retrans", int p.retrans);
        ("retrans_bytes", int p.retrans_bytes);
        ("nacks", int p.nacks); ("rto_ms", Num p.rto_ms);
      ]
  in
  let b = r.bypass in
  Obj
    [
      ("points", Arr (List.map point r.points));
      ( "bypass",
        Obj
          [
            ("invocations", int b.invocations);
            ("local_ms", Num b.local_ms); ("remote_ms", Num b.remote_ms);
            ("local_invokes", int b.local_invokes);
          ] );
    ]
