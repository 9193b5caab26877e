(* Tests for the simulated Ethernet, NICs and fault injection. *)

open Sim
open Net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A config with zero host costs and gaps so latency arithmetic in
   tests is exact. *)
let bare_config =
  {
    Ethernet.bandwidth_bps = 8_000_000;
    (* 1 byte = 1 us on the wire *)
    propagation = Time.us 5;
    frame_gap = 0;
    mtu_payload = 1482;
    send_cost_per_frame = 0;
    recv_cost_per_frame = 0;
    cost_per_byte_ns = 0;
  }

let with_net ?(config = bare_config) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Ethernet.create eng ~config () in
      f ether)

let test_frame_make () =
  let f = Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:100 (Frame.Raw "x") in
  check_int "bytes includes header" (100 + Frame.header_bytes) f.Frame.bytes;
  let small = Frame.make ~src:1 ~dst:Frame.Broadcast ~payload_bytes:0 (Frame.Raw "") in
  check_int "minimum frame size" 64 small.Frame.bytes

let test_wire_time () =
  (* 1000 bytes at 8 Mbit/s = 1 ms *)
  check_int "wire time" (Time.ms 1) (Ethernet.wire_time bare_config 1000);
  let cfg = { bare_config with frame_gap = Time.us 10 } in
  check_int "gap added" (Time.ms 1 + Time.us 10) (Ethernet.wire_time cfg 1000)

let test_unicast_delivery () =
  let elapsed =
    with_net (fun ether ->
        let _n1 = Ethernet.attach ether 1 in
        let n2 = Ethernet.attach ether 2 in
        let t0 = Sim.now () in
        let f =
          Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:(1000 - Frame.header_bytes)
            (Frame.Raw "hello")
        in
        Ethernet.transmit ether f;
        let g = Nic.recv n2 in
        check_bool "payload intact"
          true
          (match g.Frame.payload with Frame.Raw s -> s = "hello" | _ -> false);
        Time.diff (Sim.now ()) t0)
  in
  (* 1000 bytes wire (1ms) + 5us propagation *)
  check_int "latency = wire + propagation" (Time.ms 1 + Time.us 5) elapsed

let test_broadcast () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let n2 = Ethernet.attach ether 2 in
      let n3 = Ethernet.attach ether 3 in
      let f = Frame.make ~src:1 ~dst:Frame.Broadcast ~payload_bytes:10 (Frame.Raw "b") in
      Ethernet.transmit ether f;
      Sim.sleep (Time.ms 1);
      check_bool "n2 got it" true (Nic.try_recv n2 <> None);
      check_bool "n3 got it" true (Nic.try_recv n3 <> None);
      match Ethernet.nic ether 1 with
      | Some n1 -> check_bool "sender did not" true (Nic.try_recv n1 = None)
      | None -> Alcotest.fail "nic 1 missing")

let test_drop_all () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let n2 = Ethernet.attach ether 2 in
      Fault.set_drop_probability (Ethernet.fault ether) 1.0;
      let f = Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10 (Frame.Raw "x") in
      Ethernet.transmit ether f;
      Sim.sleep (Time.ms 1);
      check_bool "dropped" true (Nic.try_recv n2 = None);
      check_int "drop counted" 1 (Fault.drops (Ethernet.fault ether)))

let test_cut_and_heal () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let n2 = Ethernet.attach ether 2 in
      let fault = Ethernet.fault ether in
      Fault.cut fault 1 2;
      let send () =
        Ethernet.transmit ether
          (Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10 (Frame.Raw "x"));
        Sim.sleep (Time.ms 1)
      in
      send ();
      check_bool "cut drops" true (Nic.try_recv n2 = None);
      (* the reverse direction still works *)
      Ethernet.transmit ether
        (Frame.make ~src:2 ~dst:(Frame.Unicast 1) ~payload_bytes:10 (Frame.Raw "y"));
      Sim.sleep (Time.ms 1);
      (match Ethernet.nic ether 1 with
      | Some n1 -> check_bool "reverse direction open" true (Nic.try_recv n1 <> None)
      | None -> Alcotest.fail "nic 1 missing");
      Fault.heal fault 1 2;
      send ();
      check_bool "healed delivers" true (Nic.try_recv n2 <> None))

let test_detach () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let n2 = Ethernet.attach ether 2 in
      Ethernet.detach ether 2;
      Ethernet.transmit ether
        (Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10 (Frame.Raw "x"));
      Sim.sleep (Time.ms 1);
      check_bool "detached drops" true (Nic.try_recv n2 = None);
      Ethernet.reattach ether 2;
      Ethernet.transmit ether
        (Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10 (Frame.Raw "x"));
      Sim.sleep (Time.ms 1);
      check_bool "reattached delivers" true (Nic.try_recv n2 <> None))

let test_duplication () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let n2 = Ethernet.attach ether 2 in
      let fault = Ethernet.fault ether in
      Fault.set_link fault 1 2 { Fault.pristine with dup = 1.0 };
      Ethernet.transmit ether
        (Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10 (Frame.Raw "x"));
      Sim.sleep (Time.ms 1);
      check_bool "first copy" true (Nic.try_recv n2 <> None);
      check_bool "second copy" true (Nic.try_recv n2 <> None);
      check_bool "no third copy" true (Nic.try_recv n2 = None);
      check_int "duplicate counted" 1 (Fault.duplicates fault))

let test_delay_jitter () =
  (* With delay = 1 ms every frame is held back somewhere in (0, 1ms]
     beyond the fault-free arrival time. *)
  let fault_free, jittered =
    with_net (fun ether ->
        let _n1 = Ethernet.attach ether 1 in
        let n2 = Ethernet.attach ether 2 in
        let one_trip () =
          let t0 = Sim.now () in
          Ethernet.transmit ether
            (Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10
               (Frame.Raw "x"));
          ignore (Nic.recv n2);
          Time.diff (Sim.now ()) t0
        in
        let base = one_trip () in
        Fault.set_link (Ethernet.fault ether) 1 2
          { Fault.pristine with delay = Time.ms 1 };
        (base, one_trip ()))
  in
  check_bool "jitter adds delay" true (jittered > fault_free);
  check_bool "jitter bounded" true (jittered <= fault_free + Time.ms 1)

let test_partition_for () =
  with_net (fun ether ->
      let n1 = Ethernet.attach ether 1 in
      let n2 = Ethernet.attach ether 2 in
      let fault = Ethernet.fault ether in
      Fault.partition_for fault 1 2 (Time.ms 10);
      let send src dst =
        Ethernet.transmit ether
          (Frame.make ~src ~dst:(Frame.Unicast dst) ~payload_bytes:10 (Frame.Raw "x"));
        Sim.sleep (Time.ms 1)
      in
      send 1 2;
      send 2 1;
      check_bool "cut 1->2" true (Nic.try_recv n2 = None);
      check_bool "cut 2->1" true (Nic.try_recv n1 = None);
      Sim.sleep (Time.ms 10);
      send 1 2;
      send 2 1;
      check_bool "healed 1->2" true (Nic.try_recv n2 <> None);
      check_bool "healed 2->1" true (Nic.try_recv n1 <> None))

let test_filter () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let n2 = Ethernet.attach ether 2 in
      let fault = Ethernet.fault ether in
      Fault.set_filter fault (fun ~src:_ ~dst:_ f ->
          match f.Frame.payload with Frame.Raw "bad" -> false | _ -> true);
      let send tag =
        Ethernet.transmit ether
          (Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10 (Frame.Raw tag));
        Sim.sleep (Time.ms 1)
      in
      send "bad";
      check_bool "filtered out" true (Nic.try_recv n2 = None);
      check_int "filter drop counted" 1 (Fault.drops fault);
      send "good";
      check_bool "others pass" true (Nic.try_recv n2 <> None);
      Fault.clear_filter fault;
      send "bad";
      check_bool "cleared filter delivers" true (Nic.try_recv n2 <> None))

(* A burst in progress outlives its profile: once the default is
   pristine again, the burst's remaining frames are still lost, and
   only then does every frame go through on time.  A fault that never
   had a profile draws nothing from its stream. *)
let test_burst_outlives_profile () =
  let eng = Engine.create () in
  let frame = Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:10 (Frame.Raw "x") in
  let plans fault n = List.init n (fun _ -> Fault.plan fault ~src:1 ~dst:2 frame) in
  let fault = Fault.create eng (Rng.create ~seed:5) in
  Fault.set_default fault { Fault.pristine with burst = 1.0; burst_len = 3 };
  Alcotest.(check (list (list int))) "burst starts" [ [] ] (plans fault 1);
  Fault.set_default fault Fault.pristine;
  Alcotest.(check (list (list int)))
    "the burst's last two frames are lost, then all pass"
    [ []; []; [ 0 ]; [ 0 ] ]
    (plans fault 4);
  check_int "three drops" 3 (Fault.drops fault);
  let rng = Rng.create ~seed:5 in
  let untouched = Fault.create eng rng in
  Alcotest.(check (list (list int))) "pristine" [ [ 0 ]; [ 0 ] ] (plans untouched 2);
  check_int "no draw from the stream" (Rng.int (Rng.create ~seed:5) 1_000_000)
    (Rng.int rng 1_000_000)

let test_bus_serializes () =
  (* Two senders transmitting 1000-byte frames at once: the second
     frame arrives a full wire-time after the first. *)
  let arrivals =
    with_net (fun ether ->
        let _n1 = Ethernet.attach ether 1 in
        let _n2 = Ethernet.attach ether 2 in
        let n3 = Ethernet.attach ether 3 in
        let send src =
          ignore
            (Sim.spawn "sender" (fun () ->
                 Ethernet.transmit ether
                   (Frame.make ~src ~dst:(Frame.Unicast 3)
                      ~payload_bytes:(1000 - Frame.header_bytes) (Frame.Raw "x"))))
        in
        send 1;
        send 2;
        let a = Nic.recv n3 in
        let t1 = Sim.now () in
        let b = Nic.recv n3 in
        let t2 = Sim.now () in
        ignore a;
        ignore b;
        (t1, t2))
  in
  let t1, t2 = arrivals in
  check_int "first at wire+prop" (Time.ms 1 + Time.us 5) t1;
  check_int "second a wire-time later" (Time.ms 2 + Time.us 5) t2

let test_mtu_enforced () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let oversized =
        Frame.make ~src:1 ~dst:Frame.Broadcast ~payload_bytes:2000 (Frame.Raw "x")
      in
      let raised =
        try
          Ethernet.transmit ether oversized;
          false
        with Invalid_argument _ -> true
      in
      check_bool "mtu enforced" true raised)

let test_recv_cost_charged () =
  let config = { bare_config with recv_cost_per_frame = Time.us 100 } in
  let elapsed =
    with_net ~config (fun ether ->
        let _n1 = Ethernet.attach ether 1 in
        let n2 = Ethernet.attach ether 2 in
        Ethernet.transmit ether
          (Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:(1000 - Frame.header_bytes)
             (Frame.Raw "x"));
        let t0 = Sim.now () in
        ignore (Nic.recv n2);
        Time.diff (Sim.now ()) t0)
  in
  (* frame already waiting after transmit returns? transmit returns
     after wire time; delivery is +propagation, so recv waits 5us then
     charges 100us. *)
  check_int "propagation + recv cost" (Time.us 105) elapsed

let test_attach_twice_rejected () =
  with_net (fun ether ->
      let _ = Ethernet.attach ether 1 in
      let raised =
        try
          ignore (Ethernet.attach ether 1);
          false
        with Invalid_argument _ -> true
      in
      check_bool "duplicate attach rejected" true raised)

let test_counters () =
  with_net (fun ether ->
      let _n1 = Ethernet.attach ether 1 in
      let _n2 = Ethernet.attach ether 2 in
      let f = Frame.make ~src:1 ~dst:(Frame.Unicast 2) ~payload_bytes:100 (Frame.Raw "x") in
      Ethernet.transmit ether f;
      Ethernet.transmit ether f;
      check_int "frames" 2 (Ethernet.frames_sent ether);
      check_int "bytes" (2 * f.Frame.bytes) (Ethernet.bytes_sent ether))

let prop_wire_time_monotonic =
  QCheck.Test.make ~name:"wire time monotonic in size" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (a, b) ->
      let wa = Ethernet.wire_time bare_config a
      and wb = Ethernet.wire_time bare_config b in
      if a <= b then wa <= wb else wa >= wb)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [ Alcotest.test_case "sizes" `Quick test_frame_make ] );
      ( "ethernet",
        [
          Alcotest.test_case "wire time" `Quick test_wire_time;
          Alcotest.test_case "unicast delivery and latency" `Quick
            test_unicast_delivery;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "bus serializes" `Quick test_bus_serializes;
          Alcotest.test_case "mtu enforced" `Quick test_mtu_enforced;
          Alcotest.test_case "recv cost charged" `Quick test_recv_cost_charged;
          Alcotest.test_case "duplicate attach rejected" `Quick
            test_attach_twice_rejected;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "fault",
        [
          Alcotest.test_case "drop all" `Quick test_drop_all;
          Alcotest.test_case "cut and heal" `Quick test_cut_and_heal;
          Alcotest.test_case "detach and reattach" `Quick test_detach;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "delay jitter" `Quick test_delay_jitter;
          Alcotest.test_case "timed partition" `Quick test_partition_for;
          Alcotest.test_case "payload filter" `Quick test_filter;
          Alcotest.test_case "burst outlives its profile" `Quick
            test_burst_outlives_profile;
        ] );
      qsuite "props" [ prop_wire_time_monotonic ];
    ]
