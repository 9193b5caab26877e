type result = {
  eth_rtt_ms : float;
  ratp_rtt_ms : float;
  page_ratp_ms : float;
  page_ftp_ms : float;
  page_nfs_ms : float;
  samples : int;
}

type Net.Frame.payload += Ping_req of int | Ping_rep of int
type Ratp.Packet.body += Fetch_page | Page_body

let measure_eth_rtt ether ~samples =
  let nic1 = Net.Ethernet.attach ether 101 in
  let nic2 = Net.Ethernet.attach ether 102 in
  (* echo responder *)
  ignore
    (Sim.spawn "echo" (fun () ->
         let rec loop () =
           let frame = Net.Nic.recv nic2 in
           (match frame.Net.Frame.payload with
           | Ping_req n ->
               Net.Ethernet.transmit ether
                 (Net.Frame.make ~src:102 ~dst:(Net.Frame.Unicast 101)
                    ~payload_bytes:54 (Ping_rep n))
           | _ -> ());
           loop ()
         in
         loop ()));
  let stats = Sim.Stats.series "eth" in
  for i = 1 to samples do
    let t0 = Sim.now () in
    (* 72 bytes on the wire = 54-byte payload + 18-byte header *)
    Net.Ethernet.transmit ether
      (Net.Frame.make ~src:101 ~dst:(Net.Frame.Unicast 102) ~payload_bytes:54
         (Ping_req i));
    let rec await () =
      match (Net.Nic.recv nic1).Net.Frame.payload with
      | Ping_rep n when n = i -> ()
      | _ -> await ()
    in
    await ();
    Sim.Stats.add_span stats (Sim.Time.diff (Sim.now ()) t0)
  done;
  Sim.Stats.mean stats

let measure_ratp ether ~samples =
  let a = Ratp.Endpoint.create ether ~addr:103 () in
  let b = Ratp.Endpoint.create ether ~addr:104 () in
  Ratp.Endpoint.serve b ~service:1 (fun ~src:_ body ->
      match body with
      | Fetch_page -> (Page_body, Ra.Page.size)
      | _ -> (Ratp.Packet.Ping "ok", 32));
  let rtt = Sim.Stats.series "rtt" and page = Sim.Stats.series "page" in
  for _ = 1 to samples do
    let t0 = Sim.now () in
    (match Ratp.Endpoint.call a ~dst:104 ~service:1 ~size:32 (Ratp.Packet.Ping "x") with
    | Ok _ -> ()
    | Error _ -> failwith "ratp rtt failed");
    Sim.Stats.add_span rtt (Sim.Time.diff (Sim.now ()) t0);
    let t1 = Sim.now () in
    (match Ratp.Endpoint.call a ~dst:104 ~service:1 ~size:32 Fetch_page with
    | Ok Page_body -> ()
    | Ok _ | Error _ -> failwith "ratp page failed");
    Sim.Stats.add_span page (Sim.Time.diff (Sim.now ()) t1)
  done;
  (Sim.Stats.mean rtt, Sim.Stats.mean page)

let measure_comparators ether ~samples =
  Ratp.Ftp_sim.start_server ether ~addr:105 ();
  let ftp = Ratp.Ftp_sim.client ether ~addr:106 in
  Ratp.Nfs_sim.start_server ether ~addr:107 ();
  let nfs = Ratp.Nfs_sim.client ether ~addr:108 in
  let ftp_s = Sim.Stats.series "ftp" and nfs_s = Sim.Stats.series "nfs" in
  for _ = 1 to samples do
    let t0 = Sim.now () in
    Ratp.Ftp_sim.fetch ftp ~server:105 ~bytes:Ra.Page.size;
    Sim.Stats.add_span ftp_s (Sim.Time.diff (Sim.now ()) t0);
    let t1 = Sim.now () in
    Ratp.Nfs_sim.fetch nfs ~server:107 ~bytes:Ra.Page.size;
    Sim.Stats.add_span nfs_s (Sim.Time.diff (Sim.now ()) t1)
  done;
  (Sim.Stats.mean ftp_s, Sim.Stats.mean nfs_s)

let run ?(samples = 50) () =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let eth_rtt_ms = measure_eth_rtt ether ~samples in
      let ratp_rtt_ms, page_ratp_ms = measure_ratp ether ~samples in
      let page_ftp_ms, page_nfs_ms = measure_comparators ether ~samples in
      { eth_rtt_ms; ratp_rtt_ms; page_ratp_ms; page_ftp_ms; page_nfs_ms; samples })

let to_json (r : result) =
  let open Obs.Export in
  Obj
    [
      ("eth_rtt_ms", Num r.eth_rtt_ms); ("ratp_rtt_ms", Num r.ratp_rtt_ms);
      ("page_ratp_ms", Num r.page_ratp_ms); ("page_ftp_ms", Num r.page_ftp_ms);
      ("page_nfs_ms", Num r.page_nfs_ms); ("samples", int r.samples);
    ]
