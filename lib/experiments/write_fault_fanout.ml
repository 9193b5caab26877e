type point = {
  copyset : int;
  suspects : int;
  parallel_ms : float;
}

type result = {
  rtt_ms : float;
  baseline_ms : float;
  healthy : point list;
  suspected : point list;
}

(* Every endpoint, the RTT probe's included, runs
   [Fixtures.fast_ratp_3]: the suspect variants give up after
   20 + 40 + 80 = 140 ms instead of RaTP's default 12.75 s, and all the
   numbers in one report share a scale. *)
let measure_rtt () =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let config = Fixtures.fast_ratp_3 in
      let a = Ratp.Endpoint.create ether ~addr:1 ~config () in
      let b = Ratp.Endpoint.create ether ~addr:2 ~config () in
      Ratp.Endpoint.serve b ~service:1 (fun ~src:_ _ ->
          (Ratp.Packet.Ping "ok", 32));
      let t0 = Sim.now () in
      (match
         Ratp.Endpoint.call a ~dst:2 ~service:1 ~size:32
           (Ratp.Packet.Ping "x")
       with
      | Ok _ -> ()
      | Error Ratp.Endpoint.Timeout -> failwith "rtt probe timed out");
      Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0))

(* One data server, [copyset] reader clients that pull a read copy of
   page 0, then a separate writer node whose write fault forces the
   server to invalidate every copy.  Returns the writer's fault
   latency in simulated milliseconds. *)
let measure_write_fault ~copyset ~suspects =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let ratp_config = Fixtures.fast_ratp_3 in
      let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config () in
      let server = Dsm.Dsm_server.create nd () in
      let locate _ = 1 in
      let make_client id =
        let n = Ra.Node.create ether ~id ~kind:Ra.Node.Compute ~ratp_config () in
        ignore (Dsm.Dsm_client.create n ~locate ());
        n
      in
      let readers = List.init copyset (fun i -> make_client (10 + i)) in
      let writer = make_client 9 in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg ~size:Ra.Page.size;
      let fault mode n =
        match
          Dsm.Protocol.call n ~dst:1
            (Dsm.Protocol.Get_page { seg; page = 0; mode })
        with
        | Ok (Dsm.Protocol.Got_page _) -> ()
        | Ok _ | Error Ratp.Endpoint.Timeout -> failwith "page fault failed"
      in
      List.iter (fault Ra.Partition.Read) readers;
      (* the writer reads the page too, so every variant — including
         the empty-copyset baseline — measures a warm write fault; the
         server never invalidates the faulting node itself *)
      fault Ra.Partition.Read writer;
      (* crash the first [suspects] readers; the server still lists
         them in the copyset and will have to time out on each *)
      List.iteri (fun i n -> if i < suspects then Ra.Node.crash n) readers;
      let t0 = Sim.now () in
      fault Ra.Partition.Write writer;
      Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0))

let point ~copyset ~suspects =
  { copyset; suspects; parallel_ms = measure_write_fault ~copyset ~suspects }

let run ?(sizes = [ 1; 4; 8; 16 ]) () =
  let rtt_ms = measure_rtt () in
  let baseline_ms = measure_write_fault ~copyset:0 ~suspects:0 in
  let healthy = List.map (fun k -> point ~copyset:k ~suspects:0) sizes in
  let suspected =
    List.map (fun k -> point ~copyset:k ~suspects:(min 2 k)) sizes
  in
  { rtt_ms; baseline_ms; healthy; suspected }

let to_json (r : result) =
  let open Obs.Export in
  let point p =
    Obj
      [
        ("copyset", int p.copyset); ("suspects", int p.suspects);
        ("parallel_ms", Num p.parallel_ms);
      ]
  in
  Obj
    [
      ("rtt_ms", Num r.rtt_ms); ("baseline_ms", Num r.baseline_ms);
      ("healthy", Arr (List.map point r.healthy));
      ("suspected", Arr (List.map point r.suspected));
    ]
