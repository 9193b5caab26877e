(* Network and transport settings and workload classes shared by the
   experiments. *)

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

(* Workload classes shared by several experiments.  Each caller keeps
   its own class name: [Cluster.register_class] places a class's code
   segment by hashing the name, so the name decides which data server
   holds it. *)

module V = Clouds.Value

(* A gcp entry crediting every listed account in one transaction. *)
let batcher_cls name =
  Clouds.Obj_class.define ~name
    [
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "update_all"
        (fun ctx arg ->
          List.iter
            (fun acct ->
              ignore
                (ctx.Clouds.Ctx.invoke ~obj:(V.to_sysname acct)
                   ~entry:"credit_in_txn" (V.Int 1)))
            (V.to_list arg);
          V.Unit);
    ]

(* A gcp entry that computes for 250 ms, then adds its argument to the
   word at offset 0 and returns the sum. *)
let ledger_cls name =
  Clouds.Obj_class.define ~name
    [
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "work" (fun ctx arg ->
          let v = Clouds.Memory.get_int ctx.Clouds.Ctx.mem 0 in
          ctx.Clouds.Ctx.compute (Sim.Time.ms 250);
          Clouds.Memory.set_int ctx.Clouds.Ctx.mem 0 (v + V.to_int arg);
          V.Int (v + V.to_int arg));
    ]

(* One entry, "null", that does nothing: the cost of an invocation. *)
let null_cls name =
  Clouds.Obj_class.define ~name
    [ Clouds.Obj_class.entry "null" (fun _ _ -> V.Unit) ]
