(* Named, reproducible fault-injection scenarios over the
   RaTP / DSM / atomicity / PET stack.

   Each scenario boots a fresh simulated system, installs a fault
   plan (loss profiles, scripted filters, timed partitions, scheduled
   node crashes), drives a workload through it, and then checks the
   recovery invariants:

   - no committed data is lost: every call acknowledged [Ok] has its
     effect present in the server's durable state;
   - at-most-once: no handler effect is committed twice for one
     transaction id, even across retransmission, duplication,
     partition and crash/restart;
   - totality: every client call either completes or returns
     [Error Timeout] — nothing deadlocks or raises;
   - accounting: retransmission counters line up with the injected
     loss (loss implies retransmissions; a loss-free run implies
     none).

   Everything is driven by the simulation RNG, so a (scenario, seed)
   pair always produces the identical outcome — which the test suite
   asserts. *)

module E = Ratp.Endpoint
module F = Net.Fault
module V = Clouds.Value

type Ratp.Packet.body += Put of { call : int; value : int } | Stored of int

type outcome = {
  scenario : string;
  seed : int;
  calls : int;
  oks : int;
  timeouts : int;
  aborts : int;  (** transaction aborts surfaced to the caller *)
  commits : int;  (** handler/transaction effects committed *)
  retransmissions : int;
  drops : int;
  duplicates : int;
  violations : string list;  (** empty iff all invariants hold *)
  trace : string;  (** canonical per-call trace, for determinism checks *)
}

(* ------------------------------------------------------------------ *)
(* RaTP client/server scenarios: a pair of machines, a store service,
   sequential calls.  The "durable store" (what survives a crash)
   lives outside the node, like the store library's stable storage. *)

type ratp_spec = {
  n_calls : int;
  size : int;  (** request bytes; > frag_payload exercises reassembly *)
  handler_work : Sim.Time.span;
  setup : Net.Ethernet.t -> unit;  (** install the fault plan *)
  crash : (Sim.Time.span * Sim.Time.span) option;
      (** crash the server at, restart it at (absolute sim times) *)
  expect_retrans : bool option;
      (** [Some true]: loss was injected on the request/reply path, so
          retransmissions must be observed; [Some false]: none may *)
  expect_all_ok : bool;
}

let store_service = 11

let run_ratp name ~seed spec =
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let server = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data () in
      let client = Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute () in
      let committed = Array.make spec.n_calls None in
      let commit_count = Array.make spec.n_calls 0 in
      let serve () =
        E.serve server.Ra.Node.endpoint ~service:store_service
          (fun ~src:_ body ->
            match body with
            | Put { call; value } ->
                (* work first, then commit: a crash mid-handler loses
                   uncommitted work, which the retry re-executes *)
                if spec.handler_work > 0 then Sim.sleep spec.handler_work;
                commit_count.(call) <- commit_count.(call) + 1;
                committed.(call) <- Some value;
                (Stored value, 16)
            | _ -> (Stored (-1), 16))
      in
      serve ();
      spec.setup ether;
      (match spec.crash with
      | None -> ()
      | Some (down_at, up_at) ->
          Sim.Engine.at eng down_at (fun () -> Ra.Node.crash server);
          Sim.Engine.at eng up_at (fun () ->
              Ra.Node.restart server;
              serve ()));
      let acked = Array.make spec.n_calls false in
      let buf = Buffer.create (4 * spec.n_calls) in
      let oks = ref 0 and timeouts = ref 0 in
      for call = 0 to spec.n_calls - 1 do
        match
          E.call client.Ra.Node.endpoint ~dst:1 ~service:store_service
            ~size:spec.size
            (Put { call; value = 1000 + call })
        with
        | Ok _ ->
            incr oks;
            acked.(call) <- true;
            Buffer.add_string buf "o"
        | Error E.Timeout ->
            incr timeouts;
            Buffer.add_string buf "t"
      done;
      let fault = Net.Ethernet.fault ether in
      let retrans =
        Obs.Registry.count (E.metrics client.Ra.Node.endpoint) "ratp/retrans"
      in
      let lost = ref 0 and dup = ref 0 and commits = ref 0 in
      for call = 0 to spec.n_calls - 1 do
        if commit_count.(call) > 0 then incr commits;
        if commit_count.(call) > 1 then incr dup;
        if acked.(call) && committed.(call) <> Some (1000 + call) then
          incr lost
      done;
      let violations = ref [] in
      let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
      if !lost > 0 then violate "%d acknowledged calls lost from the store" !lost;
      if !dup > 0 then violate "%d calls committed more than once" !dup;
      if !oks + !timeouts <> spec.n_calls then violate "calls went missing";
      if spec.expect_all_ok && !timeouts > 0 then
        violate "%d calls timed out under a recoverable fault plan" !timeouts;
      (match spec.expect_retrans with
      | Some true when retrans = 0 ->
          violate "loss was injected but no retransmissions happened"
      | Some false when retrans > 0 ->
          violate "%d retransmissions despite a loss-free request/reply path"
            retrans
      | _ -> ());
      {
        scenario = name;
        seed;
        calls = spec.n_calls;
        oks = !oks;
        timeouts = !timeouts;
        aborts = 0;
        commits = !commits;
        retransmissions = retrans;
        drops = F.drops fault;
        duplicates = F.duplicates fault;
        violations = List.rev !violations;
        trace = Buffer.contents buf;
      })

(* ------------------------------------------------------------------ *)
(* Fault plans for the RaTP scenarios *)

let lossy p = { F.pristine with F.drop = p }

let fragment_loss =
  {
    n_calls = 12;
    size = 4000 (* 3 fragments *);
    handler_work = 0;
    setup =
      (fun ether ->
        (* client -> server: request fragments get dropped; the reply
           path stays clean so only reassembly is under stress *)
        F.set_link (Net.Ethernet.fault ether) 2 1 (lossy 0.2));
    crash = None;
    expect_retrans = Some true;
    expect_all_ok = true;
  }

let reply_loss =
  {
    n_calls = 12;
    size = 64;
    handler_work = 0;
    setup = (fun ether -> F.set_link (Net.Ethernet.fault ether) 1 2 (lossy 0.25));
    crash = None;
    expect_retrans = Some true;
    expect_all_ok = true;
  }

let ack_loss =
  {
    n_calls = 10;
    size = 64;
    handler_work = 0;
    setup =
      (fun ether ->
        (* drop every RaTP ack: the server must fall back on its
           cache TTL, and no handler may re-execute *)
        F.set_filter (Net.Ethernet.fault ether) (fun ~src:_ ~dst:_ frame ->
            match frame.Net.Frame.payload with
            | Ratp.Packet.Ratp { Ratp.Packet.kind = Ratp.Packet.Ack; _ } ->
                false
            | _ -> true));
    crash = None;
    expect_retrans = Some false;
    expect_all_ok = true;
  }

let burst_loss =
  {
    n_calls = 15;
    size = 3000;
    handler_work = 0;
    setup =
      (fun ether ->
        F.set_link_both (Net.Ethernet.fault ether) 1 2
          { F.pristine with F.burst = 0.04; burst_len = 4 });
    crash = None;
    expect_retrans = Some true;
    expect_all_ok = true;
  }

let jitter_dup_reorder =
  {
    n_calls = 15;
    size = 4000;
    handler_work = 0;
    setup =
      (fun ether ->
        F.set_link_both (Net.Ethernet.fault ether) 1 2
          {
            F.pristine with
            F.dup = 0.25;
            delay = Sim.Time.ms 2;
            reorder = 0.25;
            reorder_by = Sim.Time.ms 2;
          });
    crash = None;
    (* nothing is lost and jitter stays under the retry interval, so
       duplicate suppression must cope without any retransmission *)
    expect_retrans = Some false;
    expect_all_ok = true;
  }

let mid_call_partition =
  {
    n_calls = 8;
    size = 2000;
    handler_work = Sim.Time.ms 5;
    setup =
      (fun ether ->
        (* the wire vanishes in both directions while calls are in
           flight, then heals well inside the retry budget *)
        F.partition_between (Net.Ethernet.fault ether) [ 1 ] [ 2 ]
          ~after:(Sim.Time.ms 30) ~for_:(Sim.Time.ms 300));
    crash = None;
    expect_retrans = Some true;
    expect_all_ok = true;
  }

let server_crash_restart =
  {
    n_calls = 8;
    size = 2000;
    handler_work = Sim.Time.ms 30;
    setup = (fun _ether -> ());
    (* the crash lands mid-handler (calls take ~36 ms each), before
       the in-flight call commits; the restart wipes the transaction
       cache and the retry must re-execute exactly once *)
    crash = Some (Sim.Time.ms 120, Sim.Time.ms 400);
    expect_retrans = Some true;
    expect_all_ok = true;
  }

(* ------------------------------------------------------------------ *)
(* Mid-commit partition over the full bank / atomicity / DSM stack:
   distributed transfers between accounts on two data servers, with
   the compute servers partitioned from one data server mid-run.
   Two-phase commit with presumed abort must keep money conserved. *)

let run_bank_partition name ~seed =
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:Fixtures.fast_ratp ~compute:2 ~data:2
          ~workstations:0 ()
      in
      (* installing the manager hooks the cluster's entry wrapper, so
         the bank's gcp transfers run as 2PC transactions *)
      let (_ : Atomicity.Manager.t) =
        Atomicity.Manager.install sys.Clouds.om
          ~deadlock_timeout:(Sim.Time.ms 300) ~max_retries:8 ()
      in
      Apps.Bank.register sys.Clouds.om;
      let a = Apps.Bank.open_account sys.Clouds.om ~home:1 ~balance:1000 () in
      let b = Apps.Bank.open_account sys.Clouds.om ~home:2 ~balance:1000 () in
      let office = Apps.Bank.create_office sys.Clouds.om in
      let ether = sys.Clouds.cluster.Clouds.Cluster.ether in
      let fault = Net.Ethernet.fault ether in
      (* compute servers are ids 3-4, data servers 1-2: cut both
         compute servers off data server 2 while transfers run *)
      F.partition_between fault [ 3; 4 ] [ 2 ] ~after:(Sim.Time.ms 40)
        ~for_:(Sim.Time.ms 400);
      let n_calls = 6 in
      let amount = 10 in
      let buf = Buffer.create 16 in
      let oks = ref 0 and aborts = ref 0 in
      for _ = 1 to n_calls do
        match
          Apps.Bank.transfer sys.Clouds.om ~office ~from_acct:a ~to_acct:b
            amount
        with
        | () ->
            incr oks;
            Buffer.add_string buf "o"
        | exception Atomicity.Manager.Aborted _ ->
            incr aborts;
            Buffer.add_string buf "a"
        | exception Dsm.Dsm_client.Unavailable _ ->
            (* the partition outlived the transport's retry budget;
               the transaction rolled back before the exception
               surfaced, which the conservation check verifies *)
            incr aborts;
            Buffer.add_string buf "u"
      done;
      (* let the partition heal and in-flight recovery settle *)
      Sim.sleep (Sim.Time.ms 600);
      let bal_a = Apps.Bank.balance sys.Clouds.om a in
      let bal_b = Apps.Bank.balance sys.Clouds.om b in
      let committed = (bal_b - 1000) / amount in
      let violations = ref [] in
      let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
      if bal_a + bal_b <> 2000 then
        violate "money not conserved: %d + %d (partial commit)" bal_a bal_b;
      if (bal_b - 1000) mod amount <> 0 then
        violate "balance moved by a non-multiple of the transfer amount";
      if committed < !oks then
        violate "%d transfers acknowledged but only %d committed" !oks
          committed;
      if committed > n_calls then violate "more commits than transfers";
      if !oks + !aborts <> n_calls then violate "calls went missing";
      {
        scenario = name;
        seed;
        calls = n_calls;
        oks = !oks;
        timeouts = 0;
        aborts = !aborts;
        commits = committed;
        retransmissions = 0;
        drops = F.drops fault;
        duplicates = F.duplicates fault;
        violations = List.rev !violations;
        trace = Printf.sprintf "%s|a=%d,b=%d" (Buffer.contents buf) bal_a bal_b;
      })

(* ------------------------------------------------------------------ *)
(* PET under a compute-server crash: three parallel consistency-
   preserving threads, one machine dies mid-computation, the quorum
   commit must still land on enough replicas. *)

let run_pet_crash name ~seed =
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~ratp_config:Fixtures.fast_ratp ~compute:3 ~data:3
          ~workstations:0 ()
      in
      let mgr =
        Atomicity.Manager.install sys.Clouds.om
          ~deadlock_timeout:(Sim.Time.ms 400) ~max_retries:4 ()
      in
      Clouds.Cluster.register_class sys.Clouds.cluster
        (Fixtures.ledger_cls "fault-ledger");
      let group =
        Pet.Replica.create sys.Clouds.om ~class_name:"fault-ledger" ~degree:3
          V.Unit
      in
      let parallel = 3 and quorum = 2 in
      (* one compute server dies while every thread is mid-compute *)
      let victim = sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(0) in
      Pet.Failure.crash_at sys.Clouds.cluster victim.Ra.Node.id
        (Sim.Time.ms 100);
      let o = Pet.Runner.run mgr ~group ~entry:"work" ~parallel ~quorum (V.Int 1) in
      let violations = ref [] in
      let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
      if not o.Pet.Runner.quorum_ok then
        violate "quorum commit failed despite %d surviving threads"
          (parallel - 1);
      (match (o.Pet.Runner.quorum_ok, o.Pet.Runner.value) with
      | true, None -> violate "quorum ok but no value propagated"
      | _ -> ());
      if o.Pet.Runner.quorum_ok && o.Pet.Runner.replicas_updated < quorum then
        violate "quorum reported ok with only %d replicas updated"
          o.Pet.Runner.replicas_updated;
      if o.Pet.Runner.completed + o.Pet.Runner.killed > parallel then
        violate "more thread outcomes than threads";
      {
        scenario = name;
        seed;
        calls = parallel;
        oks = o.Pet.Runner.completed;
        timeouts = 0;
        aborts = o.Pet.Runner.killed;
        commits = o.Pet.Runner.replicas_updated;
        retransmissions = 0;
        drops = F.drops (Net.Ethernet.fault sys.Clouds.cluster.Clouds.Cluster.ether);
        duplicates = 0;
        violations = List.rev !violations;
        trace =
          Printf.sprintf "completed=%d killed=%d quorum=%b updated=%d"
            o.Pet.Runner.completed o.Pet.Runner.killed o.Pet.Runner.quorum_ok
            o.Pet.Runner.replicas_updated;
      })

(* ------------------------------------------------------------------ *)

let table =
  [
    ("fragment-loss", `Ratp fragment_loss);
    ("reply-loss", `Ratp reply_loss);
    ("ack-loss", `Ratp ack_loss);
    ("burst-loss", `Ratp burst_loss);
    ("jitter-dup-reorder", `Ratp jitter_dup_reorder);
    ("mid-call-partition", `Ratp mid_call_partition);
    ("server-crash-restart", `Ratp server_crash_restart);
    ("mid-commit-partition", `Bank);
    ("pet-crash-quorum", `Pet);
  ]

let scenarios = List.map fst table

let run ?(seed = 42) name =
  match List.assoc_opt name table with
  | None -> invalid_arg (Printf.sprintf "Faults.run: unknown scenario %S" name)
  | Some (`Ratp spec) -> run_ratp name ~seed spec
  | Some `Bank -> run_bank_partition name ~seed
  | Some `Pet -> run_pet_crash name ~seed

let run_all ?seed () = List.map (fun name -> run ?seed name) scenarios
let violations o = o.violations

(* For the text report only: the registry gives this experiment no
   bench section. *)
let to_json outcomes =
  let open Obs.Export in
  let outcome o =
    Obj
      [
        ("scenario", Str o.scenario); ("seed", int o.seed);
        ("calls", int o.calls); ("oks", int o.oks);
        ("timeouts", int o.timeouts); ("aborts", int o.aborts);
        ("commits", int o.commits);
        ("retransmissions", int o.retransmissions); ("drops", int o.drops);
        ("duplicates", int o.duplicates);
        ("violations", Arr (List.map (fun v -> Str v) o.violations));
        ("trace", Str o.trace);
      ]
  in
  Obj [ ("scenarios", Arr (List.map outcome outcomes)) ]
