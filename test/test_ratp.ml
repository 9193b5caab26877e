(* Tests for the RaTP transport: transactions, fragmentation,
   retransmission, duplicate suppression, and the FTP/NFS
   comparators. *)

open Sim
open Ratp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ratp ep path = Obs.Registry.count (Endpoint.metrics ep) path

let echo_service = 7

type Packet.body += Echo of string | Blob of int

let with_pair ?(config = Endpoint.default_config) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let a = Endpoint.create ether ~addr:1 () in
      let b = Endpoint.create ether ~addr:2 ~config () in
      f ether a b)

let serve_echo ?(delay = 0) b =
  Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
      if delay > 0 then Sim.sleep delay;
      match body with
      | Echo s -> (Echo (s ^ "!"), String.length s + 1)
      | Blob n -> (Blob n, n)
      | _ -> (Echo "?", 1))

(* ------------------------------------------------------------------ *)
(* Packet math *)

let test_nfrags () =
  check_int "zero" 1 (Packet.nfrags_of ~frag_payload:1400 0);
  check_int "one byte" 1 (Packet.nfrags_of ~frag_payload:1400 1);
  check_int "exact" 1 (Packet.nfrags_of ~frag_payload:1400 1400);
  check_int "one more" 2 (Packet.nfrags_of ~frag_payload:1400 1401);
  check_int "8k" 6 (Packet.nfrags_of ~frag_payload:1400 8192)

let prop_frag_sizes_sum =
  QCheck.Test.make ~name:"fragment sizes sum to total" ~count:200
    QCheck.(pair (int_range 1 4000) (int_range 0 20_000))
    (fun (frag_payload, total_size) ->
      let n = Packet.nfrags_of ~frag_payload total_size in
      let sum = ref 0 in
      for i = 0 to n - 1 do
        let b = Packet.frag_bytes ~frag_payload ~total_size i in
        if b < 0 || b > frag_payload then raise Exit;
        sum := !sum + b
      done;
      !sum = max 0 total_size)

(* ------------------------------------------------------------------ *)
(* Transactions *)

let test_simple_call () =
  let reply =
    with_pair (fun _ether a b ->
        serve_echo b;
        Endpoint.call a ~dst:2 ~service:echo_service ~size:5 (Echo "hello"))
  in
  match reply with
  | Ok (Echo s) -> Alcotest.(check string) "echoed" "hello!" s
  | Ok _ -> Alcotest.fail "wrong body"
  | Error Endpoint.Timeout -> Alcotest.fail "timed out"

let test_null_rtt_calibration () =
  (* A null transaction should land near the paper's 4.8 ms. *)
  let elapsed =
    with_pair (fun _ether a b ->
        serve_echo b;
        let t0 = Sim.now () in
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:32 (Echo "x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "timeout");
        Time.to_ms_f (Time.diff (Sim.now ()) t0))
  in
  check_bool
    (Printf.sprintf "rtt %.2fms within [3.5, 6.5]" elapsed)
    true
    (elapsed >= 3.5 && elapsed <= 6.5)

let test_concurrent_calls () =
  let n_ok =
    with_pair (fun _ether a b ->
        serve_echo b;
        let done_ = Semaphore.create 0 in
        let oks = ref 0 in
        for i = 1 to 10 do
          ignore
            (Sim.spawn "caller" (fun () ->
                 let body = Echo (string_of_int i) in
                 (match
                    Endpoint.call a ~dst:2 ~service:echo_service ~size:8 body
                  with
                 | Ok (Echo s) when s = string_of_int i ^ "!" -> incr oks
                 | Ok _ | Error _ -> ());
                 Semaphore.release done_))
        done;
        for _ = 1 to 10 do
          Semaphore.acquire done_
        done;
        !oks)
  in
  check_int "all ten distinct transactions succeed" 10 n_ok

let test_large_message_fragments () =
  let frames =
    with_pair (fun ether a b ->
        serve_echo b;
        let before = Net.Ethernet.frames_sent ether in
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8192 (Blob 8192) with
        | Ok (Blob 8192) -> ()
        | Ok _ -> Alcotest.fail "wrong reply"
        | Error _ -> Alcotest.fail "timeout");
        (* let the asynchronous ack reach the wire *)
        Sim.sleep (Time.ms 5);
        Net.Ethernet.frames_sent ether - before)
  in
  (* 6 request fragments + 6 reply fragments + 1 ack *)
  check_int "fragment count on the wire" 13 frames

let test_loss_recovered () =
  let retrans =
    with_pair (fun ether a b ->
        serve_echo b;
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.25;
        for _ = 1 to 5 do
          match Endpoint.call a ~dst:2 ~service:echo_service ~size:64 (Echo "x") with
          | Ok (Echo "x!") -> ()
          | Ok _ -> Alcotest.fail "corrupt reply"
          | Error _ -> Alcotest.fail "gave up despite retries"
        done;
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.0;
        ratp a "ratp/retrans")
  in
  check_bool "some retransmissions happened" true (retrans > 0)

let test_timeout_when_unreachable () =
  let r =
    with_pair (fun ether a _b ->
        Net.Ethernet.detach ether 2;
        let t0 = Sim.now () in
        let r = Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") in
        (r, Time.diff (Sim.now ()) t0))
  in
  (match fst r with
  | Error Endpoint.Timeout -> ()
  | Ok _ -> Alcotest.fail "should have timed out");
  (* the give-up budget: 8 waits of 50ms doubling = 12.75 s of silence *)
  check_bool "waited through full backoff" true (snd r >= Time.ms 12_000)

let test_unknown_service_times_out () =
  let r =
    with_pair (fun _ether a _b ->
        Endpoint.call a ~dst:2 ~service:99 ~size:8 (Echo "x"))
  in
  match r with
  | Error Endpoint.Timeout -> ()
  | Ok _ -> Alcotest.fail "no handler should mean no reply"

let test_at_most_once_under_loss () =
  (* Drop many frames; the handler must still run exactly once per
     transaction (duplicate requests are served from the reply
     cache). *)
  let executions, calls =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 16));
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.4;
        let ok = ref 0 in
        for _ = 1 to 8 do
          match Endpoint.call a ~dst:2 ~service:echo_service ~size:16 (Echo "x") with
          | Ok _ -> incr ok
          | Error _ -> ()
        done;
        Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.0;
        (!count, !ok))
  in
  check_bool "every successful call executed exactly once" true
    (executions >= calls);
  (* executions can exceed calls only for transactions that timed out
     client-side after the handler ran; successful ones are not
     re-executed.  With the reply cache, executions never exceeds the
     number of distinct transactions. *)
  check_bool "handler never ran more than once per transaction" true
    (executions <= 8)

let test_slow_handler_single_execution () =
  (* Handler slower than the first retry interval: the client
     retransmits, the server must not start a second execution. *)
  let executions =
    with_pair (fun _ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            Sim.sleep (Time.ms 300);
            (body, 8));
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "slow handler should still reply");
        !count)
  in
  check_int "one execution despite retransmits" 1 executions

let test_server_crash_times_out () =
  let r =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let a = Endpoint.create ether ~addr:1 () in
        let b = Endpoint.create ether ~addr:2 ~group:2 () in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            Sim.sleep (Time.ms 100);
            (body, 8));
        (* crash the server 10ms into the handler *)
        ignore
          (Sim.spawn "killer" (fun () ->
               Sim.sleep (Time.ms 10);
               Net.Ethernet.detach ether 2;
               Engine.kill_group eng 2));
        Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x"))
  in
  match r with
  | Error Endpoint.Timeout -> ()
  | Ok _ -> Alcotest.fail "crashed server must not reply"

let test_restart_single_rx_loop () =
  (* Regression: [restart] used to spawn a fresh rx loop while the old
     one kept running, so every restart added a duplicate reader
     racing for packets. *)
  let rx_loops, reply =
    with_pair (fun _ether a b ->
        serve_echo b;
        Endpoint.restart b;
        Endpoint.restart b;
        let rx_loops =
          Engine.procs (Sim.engine ())
          |> List.filter (fun (_, name) -> name = "ratp-rx-2")
          |> List.length
        in
        (rx_loops, Endpoint.call a ~dst:2 ~service:echo_service ~size:5 (Echo "hi")))
  in
  check_int "one rx loop after two restarts" 1 rx_loops;
  match reply with
  | Ok (Echo "hi!") -> ()
  | Ok _ | Error _ -> Alcotest.fail "call after restart failed"

let test_selective_fragment_loss () =
  (* A 4000-byte request fragments into three frames; the middle one
     is dropped on its first two transmissions.  The call must
     complete via retransmission, executing the handler once. *)
  let reply, retrans, executions, drops =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 16));
        let dropped = ref 0 in
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Request; frag = 1; _ }
              when !dropped < 2 ->
                incr dropped;
                false
            | _ -> true);
        let r =
          Endpoint.call a ~dst:2 ~service:echo_service ~size:4000 (Blob 16)
        in
        ( r,
          ratp a "ratp/retrans",
          !count,
          Net.Fault.drops (Net.Ethernet.fault ether) ))
  in
  (match reply with
  | Ok (Blob 16) -> ()
  | Ok _ | Error _ -> Alcotest.fail "fragment loss not recovered");
  check_int "two retransmissions" 2 retrans;
  check_int "handler executed once" 1 executions;
  check_int "two frames dropped" 2 drops

let test_busy_does_not_burn_attempts () =
  (* A slow handler makes the server answer retransmissions with
     Busy.  Busy probes must not count against the give-up budget:
     with max_attempts = 3 and a 20 ms initial retry the raw budget is
     20+40+80 = 140 ms, well short of the 200 ms handler, so this call
     only succeeds if Busy resets the attempt clock. *)
  let reply, retrans, txns =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let config =
          {
            Endpoint.default_config with
            retry_initial = Time.ms 20;
            max_attempts = 3;
          }
        in
        let a = Endpoint.create ether ~addr:1 ~config () in
        let b = Endpoint.create ether ~addr:2 () in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            Sim.sleep (Time.ms 200);
            (body, 8));
        let r = Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") in
        (r, ratp a "ratp/retrans", ratp a "ratp/transactions"))
  in
  (match reply with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Busy probes must not burn attempts");
  check_bool "probes recorded as retransmissions" true (retrans >= 3);
  check_int "still a single transaction" 1 txns

(* ------------------------------------------------------------------ *)
(* Selective retransmission and the learned RTO *)

(* The fast interconnect used by Experiments.Transport: a 64 K burst
   finishes in a few ms, well inside the 50 ms retry timer, so the
   retry path reacts to loss rather than to its own wire time. *)
let fast_ether_config =
  {
    Net.Ethernet.default_config with
    bandwidth_bps = 100_000_000;
    send_cost_per_frame = Time.us 80;
    recv_cost_per_frame = Time.us 80;
    cost_per_byte_ns = 5;
  }

let with_fast_pair ~config f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng ~config:fast_ether_config () in
      let a = Endpoint.create ether ~addr:1 ~config () in
      let b = Endpoint.create ether ~addr:2 ~config () in
      f ether a b)

let transfer_retrans_bytes ~selective =
  let config =
    {
      Endpoint.default_config with
      selective_retransmit = selective;
      max_attempts = 12;
    }
  in
  with_fast_pair ~config (fun ether a b ->
      serve_echo b;
      Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.05;
      (match Endpoint.call a ~dst:2 ~service:echo_service ~size:65536 (Blob 65536) with
      | Ok (Blob 65536) -> ()
      | Ok _ -> Alcotest.fail "corrupt echo"
      | Error _ -> Alcotest.fail "64K transfer gave up at 5% loss");
      ratp a "ratp/retrans_bytes" + ratp b "ratp/retrans_bytes")

let test_selective_saves_bytes () =
  (* The PR's acceptance pin: at 5% loss a 64K transfer must resend
     at least 5x fewer payload bytes with selective retransmission
     than with the legacy full burst. *)
  let full = transfer_retrans_bytes ~selective:false in
  let selective = transfer_retrans_bytes ~selective:true in
  check_bool "full-burst path resends something" true (full > 0);
  check_bool
    (Printf.sprintf "selective %dB vs full %dB: >= 5x saving" selective full)
    true
    (selective * 5 <= full)

let kind_tag = function
  | Packet.Request -> "req"
  | Packet.Reply -> "rep"
  | Packet.Ack -> "ack"
  | Packet.Busy -> "busy"
  | Packet.Probe -> "probe"
  | Packet.Nack -> "nack"

(* Every RaTP frame on the wire, as "time src>dst kind frag/nfrags
   size", recorded through a pass-through fault filter. *)
let tap_frames ether log =
  (* runs at frame-delivery time, outside any process: ask the engine
     for the clock rather than the current process *)
  let eng = Net.Ethernet.engine ether in
  Net.Fault.set_filter (Net.Ethernet.fault ether) (fun ~src ~dst frame ->
      (match frame.Net.Frame.payload with
      | Packet.Ratp pkt ->
          Buffer.add_string log
            (Printf.sprintf "%d %d>%d %s %d/%d %d\n" (Engine.now eng) src dst
               (kind_tag pkt.Packet.kind) pkt.frag pkt.nfrags pkt.total_size)
      | _ -> ());
      true)

let lossfree_trace ~selective =
  let config =
    { Endpoint.default_config with selective_retransmit = selective }
  in
  with_pair ~config (fun ether a b ->
      serve_echo b;
      let log = Buffer.create 1024 in
      tap_frames ether log;
      List.iter
        (fun size ->
          match Endpoint.call a ~dst:2 ~service:echo_service ~size (Blob size) with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "loss-free call timed out")
        [ 8; 1400; 4000; 8192 ];
      Sim.sleep (Time.ms 20);
      Buffer.contents log)

let test_lossfree_trace_identical () =
  (* With no loss the selective machinery must be invisible: the
     packet stream is bit-identical whether the flag is on or off,
     which is what keeps the T1-T3 calibration untouched. *)
  let on = lossfree_trace ~selective:true in
  let off = lossfree_trace ~selective:false in
  check_bool "trace is non-trivial" true (String.length on > 100);
  Alcotest.(check string) "identical packet traces" off on

let test_busy_carries_no_payload () =
  (* Regression: Busy replies used to echo the full request body back
     at the client; they must ship an empty body and zero size. *)
  let busy_frames, bad_busy =
    with_pair (fun ether a b ->
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            Sim.sleep (Time.ms 200);
            (body, 8));
        let busy_frames = ref 0 and bad_busy = ref 0 in
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            (match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Busy; total_size; body; _ } ->
                incr busy_frames;
                if total_size <> 0 || body <> Packet.Empty then incr bad_busy
            | _ -> ());
            true);
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:4000 (Blob 4000) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "slow handler should still reply");
        (!busy_frames, !bad_busy))
  in
  check_bool "server sent at least one Busy" true (busy_frames > 0);
  check_int "every Busy was empty" 0 bad_busy

let test_abandoned_burst_reaped () =
  (* An Accumulating entry for a burst the client stopped retrying
     must not pin the server table forever: it is reaped once it has
     been idle for the 5 s reply-retention time. *)
  let during, after =
    let config = { Endpoint.default_config with max_attempts = 1 } in
    with_fast_pair ~config (fun ether a b ->
        serve_echo b;
        (* the last request fragment never arrives, so the server
           accumulates forever and the client gives up after its
           single attempt *)
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Request; frag = 2; _ } -> false
            | _ -> true);
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:4000 (Blob 4000) with
        | Error Endpoint.Timeout -> ()
        | Ok _ -> Alcotest.fail "truncated burst must time out");
        let during = Endpoint.server_cache_size b in
        (* a reaper that finds the entry touched since it was armed
           re-arms for a full 5 s, so reaping can take up to twice
           that *)
        Sim.sleep (Time.sec 11);
        (during, Endpoint.server_cache_size b))
  in
  check_int "partial burst held while fresh" 1 during;
  check_int "partial burst reaped after ttl" 0 after

let test_duplicate_reply_after_ack () =
  (* Every server-to-client frame is duplicated: the reply burst and
     its duplicates race the client's Ack.  Late duplicates must be
     ignored (the transaction is gone on both ends), not corrupt the
     next transaction or re-run the handler. *)
  let executions, oks =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 4000));
        Net.Fault.set_link (Net.Ethernet.fault ether) 2 1
          { Net.Fault.pristine with dup = 1.0 };
        let oks = ref 0 in
        for _ = 1 to 3 do
          match Endpoint.call a ~dst:2 ~service:echo_service ~size:16 (Blob 16) with
          | Ok _ -> incr oks
          | Error _ -> ()
        done;
        Sim.sleep (Time.ms 50);
        (!count, !oks))
  in
  check_int "all calls succeed through duplication" 3 oks;
  check_int "handler ran once per transaction" 3 executions

let test_restart_keeps_sequence_space () =
  (* A restarted client must not reuse transaction ids: a reused tid
     would hit the server's duplicate-suppression cache and be served
     a stale reply instead of executing.  Acks are dropped so the
     server's cached replies stay alive across the restart. *)
  let executions, oks, cached_before, cached_after =
    with_pair (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ _ ->
            incr count;
            (Echo (string_of_int !count), 8));
        Net.Fault.set_filter (Net.Ethernet.fault ether)
          (fun ~src:_ ~dst:_ frame ->
            match frame.Net.Frame.payload with
            | Packet.Ratp { Packet.kind = Ack; _ } -> false
            | _ -> true);
        let oks = ref 0 in
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") with
        | Ok (Echo "1") -> incr oks
        | Ok _ | Error _ -> ());
        let cached_before = Endpoint.server_cache_size b in
        Endpoint.restart a;
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x") with
        | Ok (Echo "2") -> incr oks
        | Ok (Echo _) -> Alcotest.fail "stale cached reply: tid was reused"
        | Ok _ | Error _ -> ());
        (* a restarted *server* forgets its transaction cache *)
        Endpoint.restart b;
        (!count, !oks, cached_before, Endpoint.server_cache_size b))
  in
  check_int "both calls executed" 2 executions;
  check_int "both calls succeeded" 2 oks;
  check_bool "un-acked reply was cached" true (cached_before >= 1);
  check_int "server restart clears the cache" 0 cached_after

let test_selective_under_reorder_and_dup () =
  (* Selective retransmission must stay correct when the network
     reorders and duplicates as well as drops: every call completes,
     every handler runs exactly once. *)
  let executions, oks, nacks =
    let config =
      { Endpoint.default_config with max_attempts = 12 }
    in
    with_fast_pair ~config (fun ether a b ->
        let count = ref 0 in
        Endpoint.serve b ~service:echo_service (fun ~src:_ body ->
            incr count;
            (body, 8192));
        let profile =
          {
            Net.Fault.pristine with
            drop = 0.05;
            dup = 0.2;
            reorder = 0.3;
            reorder_by = Time.ms 5;
          }
        in
        Net.Fault.set_link_both (Net.Ethernet.fault ether) 1 2 profile;
        let oks = ref 0 in
        for _ = 1 to 10 do
          match
            Endpoint.call a ~dst:2 ~service:echo_service ~size:8192 (Blob 8192)
          with
          | Ok (Blob 8192) -> incr oks
          | Ok _ -> Alcotest.fail "corrupt reply under reorder+dup"
          | Error _ -> Alcotest.fail "call gave up under recoverable faults"
        done;
        (!count, !oks, ratp b "ratp/nacks"))
  in
  check_int "all calls completed" 10 oks;
  check_int "at-most-once held" 10 executions;
  check_bool "selective path was exercised" true (nacks > 0)

let rto_of e =
  match Endpoint.peer_stats e with
  | [ { Endpoint.peer = 2; rto_ms; _ } ] -> rto_ms
  | _ -> Alcotest.fail "expected stats for exactly peer 2"

let warm_up a ~calls ~size =
  for _ = 1 to calls do
    match Endpoint.call a ~dst:2 ~service:echo_service ~size (Echo "x") with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "loss-free warm-up call timed out"
  done

let test_learned_rto_and_karn () =
  with_fast_pair ~config:Endpoint.default_config (fun ether a b ->
      serve_echo b;
      check_bool "no sample yet: the timer is retry_initial" true
        (Endpoint.peer_stats a = []);
      warm_up a ~calls:5 ~size:64;
      let settled = rto_of a in
      (* sub-ms RTT on the fast wire: the estimate must undercut the
         50 ms initial timer but stay above the 2 ms clamp *)
      check_bool
        (Printf.sprintf "adapted rto %.2fms below initial 50ms" settled)
        true
        (settled < 50.0 && settled >= 2.0);
      (* Karn's rule: a transaction that retransmitted contributes no
         sample, so the estimate is unchanged afterwards *)
      let dropped = ref false in
      Net.Fault.set_filter (Net.Ethernet.fault ether)
        (fun ~src:_ ~dst:_ frame ->
          match frame.Net.Frame.payload with
          | Packet.Ratp { Packet.kind = Request; _ } when not !dropped ->
              dropped := true;
              false
          | _ -> true);
      (match Endpoint.call a ~dst:2 ~service:echo_service ~size:64 (Echo "y") with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "retried call timed out");
      check_bool "first transmission was dropped" true !dropped;
      Alcotest.(check (float 0.0))
        "Karn: no sample from a retransmitted transaction" settled (rto_of a);
      check_bool "the retry was recorded" true (ratp a "ratp/retrans" > 0))

(* The learned RTO lives in the estimator alone: [peer_stats] reports
   it for a peer with one sample and no retransmission, and no
   registry path mirrors it. *)
let test_rto_read_from_estimator () =
  with_fast_pair ~config:Endpoint.default_config (fun _ether a b ->
      serve_echo b;
      warm_up a ~calls:1 ~size:64;
      (match Endpoint.peer_stats a with
      | [ { Endpoint.peer = 2; retrans = 0; nacks = 0; rto_ms } ] ->
          check_bool
            (Printf.sprintf "one sample sets the rto (%.2fms)" rto_ms)
            true
            (rto_ms < 50.0 && rto_ms >= 2.0)
      | _ -> Alcotest.fail "expected one clean entry for peer 2");
      List.iter
        (fun m ->
          let path = Sim.Stats.name m in
          check_bool (path ^ " is no rto gauge") false
            (String.starts_with ~prefix:"ratp/rto" path))
        (Endpoint.metrics a))

let slow_service = 8

let test_busy_answer_gives_sample () =
  (* A Busy answer proves the server is running the original request,
     so the reply is unambiguous and Karn's rule must not discard it:
     after one slow call the timer covers the handler, and a second
     identical call waits instead of probing every few ms. *)
  with_fast_pair ~config:Endpoint.default_config (fun _ether a b ->
      serve_echo b;
      Endpoint.serve b ~service:slow_service (fun ~src:_ body ->
          Sim.sleep (Time.ms 200);
          (body, 8));
      warm_up a ~calls:5 ~size:64;
      let fast = rto_of a in
      let slow_call () =
        let before = ratp a "ratp/retrans" in
        (match
           Endpoint.call a ~dst:2 ~service:slow_service ~size:8 (Echo "s")
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "slow handler should still reply");
        ratp a "ratp/retrans" - before
      in
      let first = slow_call () in
      check_bool "the first slow call was probed" true (first > 0);
      check_bool
        (Printf.sprintf "busy-answered call sampled: rto %.2f -> %.2fms" fast
           (rto_of a))
        true
        (rto_of a > fast);
      let second = slow_call () in
      check_bool
        (Printf.sprintf "second slow call sent %d probes (<= 1)" second)
        true (second <= 1))

let sink_service = 9

let test_timer_starts_after_burst () =
  (* On the paper's 10 Mbit Ethernet a 47-fragment (64 KB) request
     takes ~56 ms to leave the host, far longer than the RTO learned
     from null calls.  The timer must not run while the burst is still
     going out, or the client probes its own half-sent request and the
     server answers with a Nack. *)
  let nacks, retrans, reply =
    with_pair (fun _ether a b ->
        serve_echo b;
        Endpoint.serve b ~service:sink_service (fun ~src:_ _ -> (Echo "ok", 2));
        warm_up a ~calls:10 ~size:32;
        check_bool
          (Printf.sprintf "rto %.2fms adapted below the burst time" (rto_of a))
          true
          (rto_of a < 50.0);
        let reply =
          Endpoint.call a ~dst:2 ~service:sink_service ~size:65536 (Blob 65536)
        in
        (ratp b "ratp/nacks", ratp a "ratp/retrans", reply))
  in
  (match reply with
  | Ok (Echo "ok") -> ()
  | Ok _ | Error _ -> Alcotest.fail "64 KB request failed");
  check_int "no Nack for a loss-free burst" 0 nacks;
  check_int "no retransmission for a loss-free burst" 0 retrans

let test_give_up_budget_is_time () =
  (* Giving up is a budget of silence, not a count of attempts: with
     retry_initial 20 ms and 3 attempts, a dead peer is declared after
     exactly 20+40+80 = 140 ms since the first send — even though the
     learned 2 ms RTO would exhaust three doublings in 14 ms. *)
  let config =
    { Endpoint.default_config with retry_initial = Time.ms 20; max_attempts = 3 }
  in
  let rto, reply, waited =
    with_fast_pair ~config (fun ether a b ->
        serve_echo b;
        warm_up a ~calls:10 ~size:64;
        let rto = rto_of a in
        Net.Ethernet.detach ether 2;
        let t0 = Sim.now () in
        let reply =
          Endpoint.call a ~dst:2 ~service:echo_service ~size:8 (Echo "x")
        in
        (rto, reply, Time.diff (Sim.now ()) t0))
  in
  check_bool (Printf.sprintf "estimator settled near 2 ms (%.2f)" rto) true
    (rto <= 3.0);
  (match reply with
  | Error Endpoint.Timeout -> ()
  | Ok _ -> Alcotest.fail "a detached peer cannot reply");
  (* the silence clock starts at the first send, after the request's
     protocol processing *)
  check_int "timeout exactly 140 ms after the first send"
    (Endpoint.proc_cost + Time.ms 140)
    waited

(* ------------------------------------------------------------------ *)
(* Reply cache *)

(* Server-side watchdogs must go when their transaction does.  The
   reply cache keeps each reply for duplicate suppression until the
   client's Ack; a cache expiry left in the event queue after the Ack
   would hold the clock hostage for the 5 s retention and, at load,
   fill the queue with one dead timer per call. *)
let test_ack_cancels_cache_expiry () =
  let eng = Engine.create () in
  let pending =
    Sim.exec_on eng (fun () ->
        let ether = Net.Ethernet.create eng () in
        let a = Endpoint.create ether ~addr:1 () in
        let b = Endpoint.create ether ~addr:2 () in
        serve_echo b;
        (match Endpoint.call a ~dst:2 ~service:echo_service ~size:5 (Echo "hi") with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "timeout");
        Sim.sleep (Time.ms 50);
        Engine.pending eng)
  in
  check_int "nothing pending once the call is acked" 0 pending;
  let final_ms = Time.to_ms_f (Engine.now eng) in
  check_bool
    (Printf.sprintf "clock %.1fms stops near the Ack, not the 5s ttl" final_ms)
    true
    (final_ms > 50.0 && final_ms < 60.0)

(* A host-independent gate on the event queue: back-to-back acked
   calls must not leave one pending timer per call behind. *)
let test_pending_bounded_under_calls () =
  let high =
    with_pair (fun _ether a b ->
        serve_echo b;
        let eng = Sim.engine () in
        let high = ref 0 in
        for _ = 1 to 1_000 do
          (match Endpoint.call a ~dst:2 ~service:echo_service ~size:5 (Echo "x") with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "timeout");
          high := max !high (Engine.pending eng)
        done;
        !high)
  in
  check_bool (Printf.sprintf "pending high-water %d <= 8" high) true (high <= 8)

(* ------------------------------------------------------------------ *)
(* Comparators: the paper's 8K transfer comparison *)

let measure f =
  let t0 = Sim.now () in
  f ();
  Time.to_ms_f (Time.diff (Sim.now ()) t0)

let test_transfer_comparison () =
  let ratp_ms, ftp_ms, nfs_ms =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let a = Endpoint.create ether ~addr:1 () in
        let b = Endpoint.create ether ~addr:2 () in
        Endpoint.serve b ~service:echo_service (fun ~src:_ _ -> (Blob 8192, 8192));
        Ftp_sim.start_server ether ~addr:3 ();
        let ftp = Ftp_sim.client ether ~addr:4 in
        Nfs_sim.start_server ether ~addr:5 ();
        let nfs = Nfs_sim.client ether ~addr:6 in
        let ratp_ms =
          measure (fun () ->
              match
                Endpoint.call a ~dst:2 ~service:echo_service ~size:32 (Echo "get")
              with
              | Ok (Blob 8192) -> ()
              | Ok _ | Error _ -> Alcotest.fail "ratp transfer failed")
        in
        let ftp_ms = measure (fun () -> Ftp_sim.fetch ftp ~server:3 ~bytes:8192) in
        let nfs_ms = measure (fun () -> Nfs_sim.fetch nfs ~server:5 ~bytes:8192) in
        (ratp_ms, ftp_ms, nfs_ms))
  in
  (* Paper: RaTP 11.9ms, NFS 50ms, FTP 70ms.  Check the ordering and
     rough factors rather than exact values. *)
  check_bool
    (Printf.sprintf "ratp (%.1f) < nfs (%.1f)" ratp_ms nfs_ms)
    true (ratp_ms < nfs_ms);
  check_bool
    (Printf.sprintf "nfs (%.1f) < ftp (%.1f)" nfs_ms ftp_ms)
    true (nfs_ms < ftp_ms);
  check_bool
    (Printf.sprintf "ftp/ratp factor %.1f in [3, 12]" (ftp_ms /. ratp_ms))
    true
    (ftp_ms /. ratp_ms >= 3.0 && ftp_ms /. ratp_ms <= 12.0);
  check_bool
    (Printf.sprintf "ratp 8k %.1fms within [8, 16]" ratp_ms)
    true
    (ratp_ms >= 8.0 && ratp_ms <= 16.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ratp"
    [
      ( "packet",
        [ Alcotest.test_case "nfrags" `Quick test_nfrags ] );
      qsuite "packet-props" [ prop_frag_sizes_sum ];
      ( "transaction",
        [
          Alcotest.test_case "simple call" `Quick test_simple_call;
          Alcotest.test_case "null rtt calibration" `Quick
            test_null_rtt_calibration;
          Alcotest.test_case "concurrent calls" `Quick test_concurrent_calls;
          Alcotest.test_case "large message fragments" `Quick
            test_large_message_fragments;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "loss recovered" `Quick test_loss_recovered;
          Alcotest.test_case "timeout when unreachable" `Quick
            test_timeout_when_unreachable;
          Alcotest.test_case "unknown service" `Quick
            test_unknown_service_times_out;
          Alcotest.test_case "at-most-once under loss" `Quick
            test_at_most_once_under_loss;
          Alcotest.test_case "slow handler single execution" `Quick
            test_slow_handler_single_execution;
          Alcotest.test_case "server crash times out" `Quick
            test_server_crash_times_out;
          Alcotest.test_case "restart keeps a single rx loop" `Quick
            test_restart_single_rx_loop;
          Alcotest.test_case "selective fragment loss" `Quick
            test_selective_fragment_loss;
          Alcotest.test_case "busy does not burn attempts" `Quick
            test_busy_does_not_burn_attempts;
        ] );
      ( "selective-retransmit",
        [
          Alcotest.test_case "64K at 5% loss: 5x fewer bytes resent" `Quick
            test_selective_saves_bytes;
          Alcotest.test_case "loss-free trace identical on/off" `Quick
            test_lossfree_trace_identical;
          Alcotest.test_case "busy carries no payload" `Quick
            test_busy_carries_no_payload;
          Alcotest.test_case "abandoned burst reaped" `Quick
            test_abandoned_burst_reaped;
          Alcotest.test_case "duplicate reply after ack" `Quick
            test_duplicate_reply_after_ack;
          Alcotest.test_case "restart keeps sequence space" `Quick
            test_restart_keeps_sequence_space;
          Alcotest.test_case "selective under reorder+dup" `Quick
            test_selective_under_reorder_and_dup;
          Alcotest.test_case "adaptive rto and karn's rule" `Quick
            test_learned_rto_and_karn;
          Alcotest.test_case "rto read from the estimator" `Quick
            test_rto_read_from_estimator;
          Alcotest.test_case "busy answer gives an rtt sample" `Quick
            test_busy_answer_gives_sample;
          Alcotest.test_case "timer starts after the burst" `Quick
            test_timer_starts_after_burst;
          Alcotest.test_case "give-up budget is time" `Quick
            test_give_up_budget_is_time;
        ] );
      ( "reply-cache",
        [
          Alcotest.test_case "ack cancels the cache expiry" `Quick
            test_ack_cancels_cache_expiry;
          Alcotest.test_case "pending bounded under 1000 calls" `Quick
            test_pending_bounded_under_calls;
        ] );
      ( "comparators",
        [
          Alcotest.test_case "ratp vs ftp vs nfs 8k transfer" `Quick
            test_transfer_comparison;
        ] );
    ]
