(* Network and transport settings shared by the experiments. *)

(* RaTP with a short retransmission budget: 20 ms first retry, four
   attempts, so a call to a partitioned or crashed peer gives up after
   20 + 40 + 80 + 160 = 300 ms of silence instead of RaTP's default
   12.75 s. *)
let fast_ratp =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Sim.Time.ms 20;
    max_attempts = 4;
  }

(* Three attempts: 20 + 40 + 80 = 140 ms to give up. *)
let fast_ratp_3 = { fast_ratp with max_attempts = 3 }

(* Modern fabrics rather than the paper's 10 Mbit/s bus.  The simulated
   network is still one shared medium; at cluster scale, or when every
   commit ships page images, a slow bus would saturate and drown the
   effect under test. *)
let ether_100m =
  {
    Net.Ethernet.default_config with
    bandwidth_bps = 100_000_000;
    send_cost_per_frame = Sim.Time.us 80;
    recv_cost_per_frame = Sim.Time.us 80;
    cost_per_byte_ns = 5;
  }

let ether_1g =
  {
    Net.Ethernet.default_config with
    bandwidth_bps = 1_000_000_000;
    send_cost_per_frame = Sim.Time.us 20;
    recv_cost_per_frame = Sim.Time.us 20;
    cost_per_byte_ns = 1;
  }

(* Run [f], backing off 5 ms and retrying, at most 400 times, while a
   data server is unavailable or the transaction aborts; each retry
   bumps [retries].  The last failure propagates. *)
let with_retry ~retries f =
  let rec go tries =
    match f () with
    | v -> v
    | exception (Dsm.Dsm_client.Unavailable _ | Atomicity.Manager.Aborted _)
      when tries < 400 ->
        incr retries;
        Sim.sleep (Sim.Time.ms 5);
        go (tries + 1)
  in
  go 0
