(* Layer probes: each times one public function in isolation, over a
   fixed number of iterations, and reports host nanoseconds and words
   allocated per operation.  They explain a [host_s] move on the
   workloads: the engine probe bears on all four, the histogram and
   ring probes on names-*, the RaTP null call on names-read and
   lossy-read, the WAL probe on commit. *)

let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let time name ~ops f =
  let w0 = words () and t0 = Sys.time () in
  f ();
  let t1 = Sys.time () and w1 = words () in
  let per x = x /. float_of_int ops in
  [
    ("probe." ^ name ^ "_ns", per ((t1 -. t0) *. 1e9));
    ("probe." ^ name ^ "_words", per (w1 -. w0));
  ]

(* A chain of processes, each sleeping 1 us and then spawning the
   next: one spawn, one timer and two resumptions per hop. *)
let engine ~ops =
  let eng = Sim.Engine.create () in
  let rec hop i () =
    Sim.sleep (Sim.Time.us 1);
    if i < ops then ignore (Sim.spawn "hop" (hop (i + 1)))
  in
  ignore (Sim.Engine.spawn eng "hop" (hop 1));
  time "engine" ~ops (fun () -> Sim.Engine.run eng)

let stats_hadd ~ops =
  let h = Sim.Stats.hist "probe" in
  time "stats_hadd" ~ops (fun () ->
      for i = 1 to ops do
        Sim.Stats.hadd h (0.01 +. (0.37 *. float_of_int (i land 1023)))
      done)

(* The ring the names-read cluster routes its 1024 keys over. *)
let ring ~ops =
  let ring = Clouds.Ring.make (List.init 16 (fun i -> i + 1)) in
  let keys = Array.init 1024 Workload.key_name in
  time "ring" ~ops (fun () ->
      for i = 0 to ops - 1 do
        ignore
          (Sys.opaque_identity
             (Clouds.Ring.owner_of_string ring keys.(i land 1023)))
      done)

(* A null message transaction between two endpoints on the paper's
   Ethernet, as in the T2 calibration. *)
let ratp_null ~ops =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let a = Ratp.Endpoint.create ether ~addr:103 () in
      let b = Ratp.Endpoint.create ether ~addr:104 () in
      Ratp.Endpoint.serve b ~service:1 (fun ~src:_ _ ->
          (Ratp.Packet.Ping "ok", 32));
      time "ratp_null" ~ops (fun () ->
          for _ = 1 to ops do
            match
              Ratp.Endpoint.call a ~dst:104 ~service:1 ~size:32
                (Ratp.Packet.Ping "x")
            with
            | Ok _ -> ()
            | Error Ratp.Endpoint.Timeout -> failwith "ratp probe timed out"
          done))

(* Concurrent appenders riding a 5 ms group-commit window: each append
   enqueues a commit record and waits until its batch is durable. *)
let wal ~ops =
  let writers = 16 in
  let per_writer = ops / writers in
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let wal =
        Store.Wal.create
          ~group_commit:{ Store.Wal.window = Sim.Time.ms 5; max_batch = 64 }
          ~spawn:(fun name f -> ignore (Sim.Engine.spawn eng name f))
          (Store.Disk.create "probe")
      in
      time "wal" ~ops:(writers * per_writer) (fun () ->
          let left = ref writers and all_done = Sim.Ivar.create () in
          for w = 1 to writers do
            ignore
              (Sim.spawn "appender" (fun () ->
                   for i = 1 to per_writer do
                     Store.Wal.append wal (Store.Wal.Committed (w, i))
                   done;
                   decr left;
                   if !left = 0 then Sim.Ivar.fill all_done ()))
          done;
          Sim.Ivar.read all_done))

(* [scale] divides every iteration count (the smoke run uses 50). *)
let run ~scale =
  let n k = max 16 (k / scale) in
  List.concat
    [
      engine ~ops:(n 200_000);
      stats_hadd ~ops:(n 2_000_000);
      ring ~ops:(n 500_000);
      ratp_null ~ops:(n 20_000);
      wal ~ops:(n 32_000);
    ]
