(* The four benchmark workloads and the one-run measurement around
   them.

   Each generator boots its own cluster through the public library API
   ([Clouds.boot], the name server, the object manager, [Apps.Bank],
   [Atomicity.Manager.install], [Net.Fault]) and never calls into
   [Experiments]: a change to the experiment harness cannot move the
   workload.  A run is one seeded simulation: set-up (boot, atomicity
   install, pre-binding or account opening, warm transactions), then
   the measured window from the first armed request to the last
   completion, then output checks that run after the window and are
   not timed.

   Why these four: names-read is the read-mostly hot path at cluster
   scale (engine, RaTP and DSM read fetches work, the WAL idles);
   names-write drives the same service through DSM write faults,
   invalidation fan-out and the per-shard lock and commit, just under
   its knee so a coherence regression shows in the tail; commit is
   the closed-loop 2PC pipeline (atomicity, WAL, disk) with the name
   service idle; lossy-read is names-read under 2% frame loss, where
   RaTP retransmission and timeouts do the work.  Each mechanism has a
   workload that exercises it and one that bypasses it. *)

module Cl = Clouds.Cluster
module V = Clouds.Value
module Tr = Obs.Tracer

type names = {
  rate : float;  (** Poisson arrivals per simulated second (open loop) *)
  clients : int;  (** client sessions, spread round robin over compute nodes *)
  requests : int;
  bind_pct : int;  (** percent of requests that are (re)binds *)
  nkeys : int;
  atomicity : bool;
  drop : float;  (** uniform frame loss, switched on after set-up *)
}

type commit = {
  sessions : int;  (** closed-loop sessions, one per compute node *)
  txns : int;  (** measured transactions per session *)
  accounts : int;  (** private accounts credited per transaction *)
  window : Sim.Time.span;  (** group-commit window *)
  checkpoint_every : Sim.Time.span;
}

type shape = Names of names | Commit of commit
type t = { name : string; data : int; compute : int; shape : shape }

let names_read_load =
  {
    rate = 1500.0;
    clients = 2000;
    requests = 100_000;
    bind_pct = 5;
    nkeys = 1024;
    atomicity = false;
    drop = 0.0;
  }

let names_read =
  {
    name = "names-read";
    data = 16;
    compute = 40;
    shape = Names names_read_load;
  }

let names_write =
  {
    name = "names-write";
    data = 8;
    compute = 16;
    shape =
      Names
        {
          rate = 600.0;
          clients = 512;
          requests = 50_000;
          bind_pct = 30;
          nkeys = 256;
          atomicity = true;
          drop = 0.0;
        };
  }

let commit =
  {
    name = "commit";
    data = 4;
    compute = 64;
    shape =
      Commit
        {
          sessions = 64;
          txns = 60;
          accounts = 4;
          window = Sim.Time.ms 5;
          checkpoint_every = Sim.Time.ms 100;
        };
  }

let lossy_read =
  {
    names_read with
    name = "lossy-read";
    shape = Names { names_read_load with requests = 60_000; drop = 0.02 };
  }

let all = [ names_read; names_write; commit; lossy_read ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The smoke size: about 1/50 of the requests, same cluster shape. *)
let smoke w =
  match w.shape with
  | Names n -> { w with shape = Names { n with requests = n.requests / 50 } }
  | Commit c -> { w with shape = Commit { c with txns = max 1 (c.txns / 50) } }

(* A modern fabric rather than the paper's 10 Mbit/s bus, as in the
   repository's load and commit experiments: at 50+ nodes the
   coherence and prepare traffic would otherwise saturate one slow
   shared medium and drown the layers under test. *)
let ether_config =
  {
    Net.Ethernet.default_config with
    bandwidth_bps = 1_000_000_000;
    send_cost_per_frame = Sim.Time.us 20;
    recv_cost_per_frame = Sim.Time.us 20;
    cost_per_byte_ns = 1;
  }

let key_name k = Printf.sprintf "obj-%04d" k

(* The sysname bound to key [k]: well-known names, so the benchmark
   measures the name service and not the objects behind it. *)
let key_target k = Ra.Sysname.well_known (k + 1)

(* ------------------------------------------------------------------ *)
(* One run *)

type gc_mark = { minor : float; major : float; collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    major = s.Gc.major_words;
    collections = s.Gc.major_collections;
  }

(* What the traced run records at the window edges, so its counters
   cover the measured window only. *)
type window_mark = {
  totals : (string * int) list;
  frames : int;
  bytes : int;
  drops : int;
  events : int;
}

(* Everything a run measures inside the simulation; filled in as the
   run crosses each phase. *)
type state = {
  traced : bool;
  t0 : float;  (** host CPU when the run began *)
  tracer : Tr.t;
  events : int ref;
  mutable registries : Obs.Registry.t list;
  mutable ether : Net.Ethernet.t option;
  mutable setup_s : float;
  mutable host_s : float;
  mutable window_ms : float;
  mutable gc0 : gc_mark;
  mutable gc1 : gc_mark;
  mutable mark0 : window_mark option;
  mutable mark1 : window_mark option;
  mutable lat : float array;  (** simulated ms per request, completion order *)
  mutable nlat : int;
  mutable failed : int;
  mutable errors : string list;
}

type result = {
  seed : int;
  failed : int;  (** requests that missed, read wrong, or ran out of retries *)
  errors : string list;  (** failed output checks, empty when correct *)
  latencies : float array;  (** simulated ms per request, completion order *)
  window_ms : float;  (** simulated makespan of the measured window *)
  host : (string * float) list;  (** setup_s, host_s, peak_rss_mb *)
  layers : (string * float) list;  (** per-layer metrics, by name *)
}

let record st ms =
  st.lat.(st.nlat) <- ms;
  st.nlat <- st.nlat + 1

let error (st : state) fmt =
  Printf.ksprintf (fun s -> st.errors <- s :: st.errors) fmt

let window_mark st =
  match st.ether with
  | None -> None
  | Some ether ->
      Some
        {
          totals = Obs.Registry.totals st.registries;
          frames = Net.Ethernet.frames_sent ether;
          bytes = Net.Ethernet.bytes_sent ether;
          drops = Net.Fault.drops (Net.Ethernet.fault ether);
          events = !(st.events);
        }

(* Window start: set-up is over and the first request is about to be
   armed.  The tracer goes in here, so set-up leaves no spans. *)
let window_open st =
  st.setup_s <- Sys.time () -. st.t0;
  if st.traced then begin
    st.mark0 <- window_mark st;
    Tr.install st.tracer
  end;
  st.gc0 <- gc_mark ();
  st.host_s <- Sys.time ()

(* Window end: the last request completed.  The tracer comes out
   before the output checks, which are not part of the workload. *)
let window_close st =
  st.host_s <- Sys.time () -. st.host_s;
  st.gc1 <- gc_mark ();
  if st.traced then begin
    Tr.uninstall ();
    st.mark1 <- window_mark st
  end

let retryable = function
  | Dsm.Dsm_client.Unavailable _ | Atomicity.Manager.Aborted _ -> true
  | _ -> false

(* A stalled stage can push a server past the RaTP retry ladder, and
   under atomicity the deadlock watchdog aborts transactions; a client
   backs off 5 ms and retries, and the stall lands in the latency
   sample like any other queueing delay.  [None] after 400 retries: the
   request failed. *)
let with_retry f =
  let rec go tries =
    match f () with
    | v -> Some v
    | exception e when retryable e && tries < 400 ->
        Sim.sleep (Sim.Time.ms 5);
        go (tries + 1)
    | exception e when retryable e -> None
  in
  go 0

let boot eng w ?group_commit_window ?checkpoint_every () =
  Clouds.boot eng ~ether_config ?group_commit_window ?checkpoint_every
    ~compute:w.compute ~data:w.data ~workstations:0 ()

let registries cl om atm =
  let extra =
    match atm with Some a -> Atomicity.Manager.metrics a | None -> []
  in
  Clouds.Telemetry.registries ~om ~extra cl

(* Open loop over the sharded name service.  Arrivals are a Poisson
   process driven from engine context, so they never wait for earlier
   requests; latency runs from the instant a request was due. *)
let run_names st ~seed w n =
  let eng = Sim.engine () in
  let sys = boot eng w () in
  let cl = sys.Clouds.cluster and om = sys.Clouds.om in
  let atm =
    if n.atomicity then Some (Atomicity.Manager.install om ()) else None
  in
  for k = 0 to n.nkeys - 1 do
    Clouds.Name_server.bind om ~name:(key_name k) (key_target k)
  done;
  if n.drop > 0.0 then
    Net.Fault.set_drop_probability (Net.Ethernet.fault cl.Cl.ether) n.drop;
  st.registries <- registries cl om atm;
  st.ether <- Some cl.Cl.ether;
  st.lat <- Array.make n.requests 0.0;
  let done_ivar = Sim.Ivar.create () in
  let rng = Sim.Rng.create ~seed:(seed lxor 0x10ad) in
  let ncomp = Array.length cl.Cl.compute_nodes in
  let request i () =
    Tr.with_span "request" @@ fun () ->
    let due = Sim.now () in
    let node = cl.Cl.compute_nodes.((i mod n.clients) mod ncomp) in
    let k = Sim.Rng.int rng n.nkeys in
    (if Sim.Rng.int rng 100 < n.bind_pct then begin
       Tr.with_span "bench.bind" @@ fun () ->
       match
         with_retry (fun () ->
             Clouds.Name_server.bind om ~name:(key_name k) (key_target k))
       with
       | Some () -> ()
       | None -> st.failed <- st.failed + 1
     end
     else
       Tr.with_span "bench.lookup" @@ fun () ->
       match
         with_retry (fun () ->
             Clouds.Name_server.lookup ~on:node om (key_name k))
       with
       | Some (Some s) when Ra.Sysname.equal s (key_target k) -> ()
       | Some _ | None -> st.failed <- st.failed + 1);
    record st (Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) due));
    if st.nlat = n.requests then Sim.Ivar.fill done_ivar ()
  in
  let mean_gap_ms = 1000.0 /. n.rate in
  let rec arm i at =
    Sim.Engine.at eng at (fun () ->
        ignore (Sim.Engine.spawn eng "perf-req" (request i));
        if i + 1 < n.requests then begin
          let u = Sim.Rng.float rng 1.0 in
          let gap = Sim.Time.of_ms_f (-.log (1.0 -. u) *. mean_gap_ms) in
          arm (i + 1) (Sim.Time.add at gap)
        end)
  in
  window_open st;
  let t_start = Sim.now () in
  arm 0 t_start;
  Sim.Ivar.read done_ivar;
  st.window_ms <- Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t_start);
  window_close st;
  (* every binding must survive the run: binds only ever rebind a key
     to its own target *)
  for k = 0 to n.nkeys - 1 do
    match
      with_retry (fun () -> Clouds.Name_server.lookup om (key_name k))
    with
    | Some (Some s) when Ra.Sysname.equal s (key_target k) -> ()
    | _ -> error st "key %s no longer resolves to its target" (key_name k)
  done

(* A gcp entry crediting every listed account by one in a single
   transaction: with accounts on distinct data servers, each call is a
   multi-participant two-phase commit. *)
let batcher_cls =
  Clouds.Obj_class.define ~name:"perf-batcher"
    [
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "credit_all"
        (fun ctx arg ->
          List.iter
            (fun acct ->
              ignore
                (ctx.Clouds.Ctx.invoke ~obj:(V.to_sysname acct)
                   ~entry:"credit_in_txn" (V.Int 1)))
            (V.to_list arg);
          V.Unit);
    ]

(* Closed loop: each session issues its next transaction when the
   previous one is acknowledged.  Accounts are private to a session,
   so the only shared resources are the data servers' logs and disks.
   The seed picks the order in which each transaction visits its
   accounts, and with it the order it reaches the data servers. *)
let run_commit st ~seed w c =
  let eng = Sim.engine () in
  let sys =
    boot eng w ~group_commit_window:c.window
      ~checkpoint_every:c.checkpoint_every ()
  in
  let cl = sys.Clouds.cluster and om = sys.Clouds.om in
  let atm = Atomicity.Manager.install om () in
  Apps.Bank.register om;
  Cl.register_class cl batcher_cls;
  let ncomp = Array.length cl.Cl.compute_nodes in
  let sessions =
    Array.init c.sessions (fun i ->
        let accounts =
          List.init c.accounts (fun j ->
              Apps.Bank.open_account om
                ~home:(1 + (((i * c.accounts) + j) mod w.data))
                ~balance:0 ())
        in
        let batcher =
          Clouds.Object_manager.create_object om ~class_name:"perf-batcher"
            V.Unit
        in
        (cl.Cl.compute_nodes.(i mod ncomp), batcher, accounts))
  in
  st.registries <- registries cl om (Some atm);
  st.ether <- Some cl.Cl.ether;
  st.lat <- Array.make (c.sessions * c.txns) 0.0;
  let acked = Array.make c.sessions 0 in
  let warmed = ref 0 and finished = ref 0 in
  let go = Sim.Ivar.create () and done_ivar = Sim.Ivar.create () in
  let rng = Sim.Rng.create ~seed:(seed lxor 0xc0de) in
  let txn i (node, batcher, accounts) =
    let order = Array.of_list (List.map V.of_sysname accounts) in
    Sim.Rng.shuffle rng order;
    match
      with_retry (fun () ->
          Clouds.Object_manager.invoke om ~node ~thread_id:0 ~origin:None
            ~txn:None ~obj:batcher ~entry:"credit_all"
            (V.List (Array.to_list order)))
    with
    | Some _ -> acked.(i) <- acked.(i) + 1
    | None -> st.failed <- st.failed + 1
  in
  Array.iteri
    (fun i s ->
      ignore
        (Sim.Engine.spawn eng
           (Printf.sprintf "perf-session-%d" i)
           (fun () ->
             (* one unmeasured warm transaction per session: first
                touches pay cold-segment reads, activation and
                code-page faults that belong to set-up; staggered so
                the warm faults do not convoy *)
             Sim.sleep (Sim.Time.us (i * 3100));
             txn i s;
             incr warmed;
             if !warmed = c.sessions then begin
               window_open st;
               Sim.Ivar.fill go (Sim.now ())
             end;
             let t_start = Sim.Ivar.read go in
             for _ = 1 to c.txns do
               let t0 = Sim.now () in
               Tr.with_span "request" (fun () ->
                   Tr.with_span "bench.txn" (fun () -> txn i s));
               record st (Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0))
             done;
             incr finished;
             if !finished = c.sessions then
               Sim.Ivar.fill done_ivar
                 (Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t_start)))))
    sessions;
  st.window_ms <- Sim.Ivar.read done_ivar;
  window_close st;
  (* no account has two writers, so each balance is exactly its
     session's acknowledged transactions, warm one included *)
  Array.iteri
    (fun i (_, _, accounts) ->
      List.iter
        (fun a ->
          let b = Apps.Bank.balance om a in
          if b <> acked.(i) then
            error st "session %d: account %s holds %d, %d commits acked" i
              (Ra.Sysname.to_string a) b acked.(i))
        accounts)
    sessions

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> kb
            | None -> scan ())
      in
      let kb = scan () in
      close_in ic;
      kb

(* [Sim.exec], but stepping the engine so a traced run can count the
   events it processes; the event order is the same either way. *)
let exec ~seed ~events f =
  let eng = Sim.Engine.create ~seed () in
  let result = ref None in
  ignore (Sim.Engine.spawn eng "exec" (fun () -> result := Some (f ())));
  while Sim.Engine.step eng do
    incr events
  done;
  match !result with
  | Some v -> v
  | None -> failwith "deadlock: event queue drained before the run finished"

let run ~seed ~traced w =
  let st =
    {
      traced;
      t0 = Sys.time ();
      tracer = Tr.create ();
      events = ref 0;
      registries = [];
      ether = None;
      setup_s = 0.0;
      host_s = 0.0;
      window_ms = 0.0;
      gc0 = gc_mark ();
      gc1 = gc_mark ();
      mark0 = None;
      mark1 = None;
      lat = [||];
      nlat = 0;
      failed = 0;
      errors = [];
    }
  in
  let body () =
    match w.shape with
    | Names n -> run_names st ~seed w n
    | Commit c -> run_commit st ~seed w c
  in
  if traced then exec ~seed ~events:st.events body else Sim.exec ~seed body;
  let ops = st.nlat in
  let traced_layers =
    match (st.mark0, st.mark1) with
    | Some p0, Some p1 ->
        let counter path =
          let get p = Option.value ~default:0 (List.assoc_opt path p.totals) in
          get p1 - get p0
        in
        Layers.of_trace st.tracer ~ops ~counter ~frames:(p1.frames - p0.frames)
          ~bytes:(p1.bytes - p0.bytes) ~drops:(p1.drops - p0.drops)
          ~events:(p1.events - p0.events)
    | _ -> []
  in
  let mwords x = x /. 1e6 in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  {
    seed;
    failed = st.failed;
    errors = List.rev st.errors;
    latencies = Array.sub st.lat 0 st.nlat;
    window_ms = st.window_ms;
    host =
      [
        ("setup_s", st.setup_s);
        ("host_s", st.host_s);
        ("peak_rss_mb", float_of_int (vm_hwm_kb ()) /. 1024.0);
      ];
    layers =
      [
        ("gc.minor_mwords", mwords (st.gc1.minor -. st.gc0.minor));
        ("gc.major_mwords", mwords (st.gc1.major -. st.gc0.major));
        ( "gc.major_collections",
          float_of_int (st.gc1.collections - st.gc0.collections) );
        ( "gc.top_heap_mb",
          float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
      ]
      @ traced_layers;
  }
