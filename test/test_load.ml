(* Tests for the sharded name/placement service and the open-loop
   load harness: ring determinism and bounded key movement, shard
   routing equivalence with the centralized server, the ring rebuild
   on a membership remap, unbind across a remap, hash-index rebind
   semantics, load-harness determinism, the sharded-vs-central A/B,
   and the wall-clock budget the flattened engine is pinned to. *)

module Cl = Clouds.Cluster
module Ns = Clouds.Name_server
module Ring = Clouds.Ring
module Load = Experiments.Load
module M = Membership.Monitor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_keys n = List.init n Ring.key_of_int

(* ------------------------------------------------------------------ *)
(* Ring *)

(* Placement is a pure function of the member set: two rings built
   from the same members (in any order) agree on every owner. *)
let test_ring_deterministic () =
  let a = Ring.make [ 1; 2; 3; 4; 5 ] in
  let b = Ring.make [ 5; 3; 1; 4; 2 ] in
  List.iter
    (fun k -> check_int "same owner" (Ring.owner a k) (Ring.owner b k))
    (sample_keys 2048);
  check_bool "members sorted and deduped" true
    (Ring.members (Ring.make [ 2; 1; 2; 3 ]) = [ 1; 2; 3 ])

(* Adding a member moves only keys that land on the newcomer, and no
   more than ~K/n of them; removing a member moves only the keys it
   owned.  These are the defining consistent-hashing properties. *)
let test_ring_bounded_movement () =
  let keys = sample_keys 4096 in
  let base = List.init 8 (fun i -> i + 1) in
  let before = Ring.make base in
  (* join: 9 enters *)
  let joined = Ring.make (9 :: base) in
  let moved_j =
    List.filter (fun k -> Ring.owner before k <> Ring.owner joined k) keys
  in
  List.iter
    (fun k -> check_int "moved keys land on the newcomer" 9 (Ring.owner joined k))
    moved_j;
  let bound = 2 * List.length keys / 9 in
  check_bool
    (Printf.sprintf "join moves %d keys <= %d" (List.length moved_j) bound)
    true
    (List.length moved_j <= bound);
  check_bool "join moves a non-trivial arc" true (List.length moved_j > 0);
  (* leave: 3 departs *)
  let left = Ring.make (List.filter (fun m -> m <> 3) base) in
  List.iter
    (fun k ->
      if Ring.owner before k <> 3 then
        check_int "unowned keys do not move on leave" (Ring.owner before k)
          (Ring.owner left k))
    keys;
  let moved_l =
    List.filter (fun k -> Ring.owner before k <> Ring.owner left k) keys
  in
  let bound = 2 * List.length keys / 8 in
  check_bool
    (Printf.sprintf "leave moves %d keys <= %d" (List.length moved_l) bound)
    true
    (List.length moved_l <= bound)

(* [find_owner] walks the arcs from a key and takes the first distinct
   member that is not down.  Its reference is the ring over the
   members that are up: dropping a member removes exactly its virtual
   nodes, so that ring's owner of the key is the first up member in
   the full ring's arc order — what the first usable entry of the
   full preference list was. *)
let prop_find_owner_first_usable =
  QCheck.Test.make ~name:"find_owner is the first usable member" ~count:300
    QCheck.(
      triple (int_range 1 12) (list_of_size (Gen.int_range 0 12) (int_range 1 12)) int)
    (fun (n, down, key) ->
      let members = List.init n (fun i -> 10 * (i + 1)) in
      let down = List.map (fun i -> 10 * i) down in
      let ring = Ring.make members in
      let key = Ring.key_of_int key in
      let up = List.filter (fun m -> not (List.mem m down)) members in
      let got = Ring.find_owner ring key (fun a -> not (List.mem a down)) in
      match up with
      | [] -> got = None
      | _ -> got = Some (Ring.owner (Ring.make up) key))

(* ------------------------------------------------------------------ *)
(* Shard routing *)

let names n = List.init n (fun i -> Printf.sprintf "svc-%03d" i)

(* The same bind/lookup script against a sharded and a centralized
   cluster must resolve every name identically: sharding changes
   where a binding lives, never what it says. *)
let bind_and_resolve ~sharded n =
  Sim.exec ~seed:11 (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:3 ~data:4 ~workstations:0 () in
      let cl = sys.Clouds.cluster in
      Cl.set_name_sharding cl sharded;
      let om = sys.Clouds.om in
      List.iteri
        (fun i name -> Ns.bind om ~name (Ra.Sysname.well_known (i + 1)))
        (names n);
      let resolved =
        List.map
          (fun name ->
            match Ns.lookup om name with
            | Some s -> (name, Ra.Sysname.to_string s)
            | None -> (name, "<none>"))
          (names n)
      in
      let listed =
        Ns.bindings om |> List.map fst |> List.sort String.compare
      in
      (resolved, listed))

let test_shard_routing_equivalence () =
  let n = 48 in
  let sharded, listed_s = bind_and_resolve ~sharded:true n in
  let central, listed_c = bind_and_resolve ~sharded:false n in
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check string) (name ^ " resolves identically") b a)
    sharded central;
  check_bool "no lookup missed" true
    (List.for_all (fun (_, s) -> s <> "<none>") sharded);
  Alcotest.(check (list string))
    "bindings enumerate the same names" listed_c listed_s;
  check_int "rebinds never duplicate" n (List.length listed_s)

(* Rebinding replaces, unbinding removes — through the hash-indexed
   fast path (second lookup of each name is an index hit). *)
let test_rebind_unbind () =
  Sim.exec ~seed:5 (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:2 ~data:3 ~workstations:0 () in
      let om = sys.Clouds.om in
      let s1 = Ra.Sysname.well_known 1 and s2 = Ra.Sysname.well_known 2 in
      Ns.bind om ~name:"x" s1;
      check_bool "first binding" true (Ns.lookup om "x" = Some s1);
      check_bool "index hit repeats the answer" true
        (Ns.lookup om "x" = Some s1);
      Ns.bind om ~name:"x" s2;
      check_bool "rebind replaces" true (Ns.lookup om "x" = Some s2);
      check_int "rebind leaves one binding" 1 (List.length (Ns.bindings om));
      Ns.unbind om "x";
      check_bool "unbind removes" true (Ns.lookup om "x" = None);
      check_bool "unknown name misses" true (Ns.lookup om "nope" = None))

(* ------------------------------------------------------------------ *)
(* Remap on view change *)

(* A view condemning one data server rebuilds the ring over the
   survivors, keeps the old ring as the lookup fallback, and every
   name bound before the remap still resolves. *)
let test_remap_rebuilds_ring () =
  Sim.exec ~seed:23 (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:2 ~data:4 ~workstations:0 () in
      let cl = sys.Clouds.cluster in
      let om = sys.Clouds.om in
      let nm = names 64 in
      List.iteri
        (fun i name -> Ns.bind om ~name (Ra.Sysname.well_known (i + 1)))
        nm;
      (* resolve every name from each compute node before the remap *)
      Array.iter
        (fun node ->
          List.iter (fun name -> ignore (Ns.lookup ~on:node om name)) nm)
        cl.Cl.compute_nodes;
      let before = Clouds.Placement.ring cl.Cl.placement in
      let dead = cl.Cl.data_nodes.(3).Ra.Node.id in
      Cl.remap_ring cl
        { M.epoch = 1; members = [ { M.addr = dead; status = M.Dead } ] };
      check_bool "ring dropped the condemned member" true
        (Clouds.Placement.ring cl.Cl.placement
        |> Ring.members |> List.mem dead |> not);
      check_bool "previous ring retained for fallback" true
        (match Clouds.Placement.prev_ring cl.Cl.placement with
        | Some p -> Ring.members p = Ring.members before
        | None -> false);
      (* the service still answers across the remap *)
      List.iteri
        (fun i name ->
          check_bool (name ^ " survives the remap") true
            (Ns.lookup om name = Some (Ra.Sysname.well_known (i + 1))))
        nm)

(* After a remap moves a name's owner, unbind also clears the shard
   the previous ring assigned it: otherwise the lookup fallback would
   still find the binding there. *)
let test_unbind_after_remap () =
  Sim.exec ~seed:23 (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:2 ~data:4 ~workstations:0 () in
      let cl = sys.Clouds.cluster in
      let om = sys.Clouds.om in
      let nm = names 16 in
      List.iteri
        (fun i name -> Ns.bind om ~name (Ra.Sysname.well_known (i + 1)))
        nm;
      let before = Clouds.Placement.ring cl.Cl.placement in
      let dead = cl.Cl.data_nodes.(3).Ra.Node.id in
      Cl.remap_ring cl
        { M.epoch = 1; members = [ { M.addr = dead; status = M.Dead } ] };
      let name =
        List.find
          (fun n ->
            Ring.owner_of_string before n
            <> Ring.owner_of_string (Clouds.Placement.ring cl.Cl.placement) n)
          nm
      in
      Ns.unbind om name;
      check_bool "lookup misses" true (Ns.lookup om name = None);
      let old_shard = Ring.owner_of_string before name in
      let listed =
        match
          Clouds.Object_manager.invoke om ~node:cl.Cl.compute_nodes.(0)
            ~thread_id:0 ~origin:None ~txn:None
            ~obj:(List.assoc old_shard (Cl.name_shards cl))
            ~entry:"list" Clouds.Value.Unit
        with
        | Clouds.Value.List l -> l
        | _ -> Alcotest.fail "list reply is not a list"
      in
      check_bool "old shard no longer holds it" false
        (List.exists
           (function
             | Clouds.Value.Pair (Clouds.Value.Str n, _) -> n = name
             | _ -> false)
           listed))

(* ------------------------------------------------------------------ *)
(* Load harness *)

let same_point (a : Load.point) (b : Load.point) =
  a.Load.completed = b.Load.completed
  && a.misses = b.misses && a.retries = b.retries
  && a.p50_ms = b.p50_ms && a.p95_ms = b.p95_ms && a.p99_ms = b.p99_ms
  && a.mean_ms = b.mean_ms && a.sim_ms = b.sim_ms

(* Same seed, same cell -> byte-identical simulated metrics
   (wall-clock excluded, it is a host property). *)
let test_load_deterministic () =
  let c = List.hd Load.smoke_cells in
  let a = Load.run_cell ~seed:42 c and b = Load.run_cell ~seed:42 c in
  check_bool "identical simulated metrics at a fixed seed" true
    (same_point a b);
  check_int "every arrival completed" c.Load.invocations a.Load.completed;
  check_int "no lookup missed" 0 a.Load.misses

(* The acceptance A/B: on the same grid cell, the sharded service's
   p95 beats the centralized one (whose single bind leader and DSM
   invalidation traffic queue). *)
let test_sharded_beats_central () =
  let points = Load.run ~cells:Load.smoke_cells () in
  let find lbl =
    List.find (fun p -> p.Load.cell.Load.label = lbl) points
  in
  let shard = find "smoke-shard" and central = find "smoke-central" in
  check_bool
    (Printf.sprintf "sharded p95 %.1fms < central p95 %.1fms"
       shard.Load.p95_ms central.Load.p95_ms)
    true
    (shard.Load.p95_ms < central.Load.p95_ms)

(* The largest grid cell (56 nodes, 2000 clients, 100k invocations)
   must stay under the pinned wall-clock budget: this is the
   regression gate on the flattened engine hot paths.  Measured ~8 s
   on the reference container; the budget leaves headroom for slower
   CI hosts without letting an O(n log n)-per-event regression
   hide. *)
let wall_budget_s = 30.0

let test_big_cell_wall_budget () =
  let p = Load.run_cell Load.big_cell in
  let c = p.Load.cell in
  check_bool "grid is >= 50 nodes" true (c.Load.data + c.Load.compute >= 50);
  check_bool "grid is >= 100k invocations" true (c.Load.invocations >= 100_000);
  check_int "every arrival completed" c.Load.invocations p.Load.completed;
  check_int "no lookup missed" 0 p.Load.misses;
  check_bool
    (Printf.sprintf "big cell wall %.2fs under %.0fs budget" p.Load.wall_s
       wall_budget_s)
    true
    (p.Load.wall_s < wall_budget_s)

let () =
  Alcotest.run "load"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic placement" `Quick
            test_ring_deterministic;
          Alcotest.test_case "bounded key movement" `Quick
            test_ring_bounded_movement;
          QCheck_alcotest.to_alcotest prop_find_owner_first_usable;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "routing equivalence" `Quick
            test_shard_routing_equivalence;
          Alcotest.test_case "rebind and unbind" `Quick test_rebind_unbind;
          Alcotest.test_case "remap rebuilds the ring" `Quick
            test_remap_rebuilds_ring;
          Alcotest.test_case "unbind after a remap" `Quick
            test_unbind_after_remap;
        ] );
      ( "harness",
        [
          Alcotest.test_case "deterministic" `Quick test_load_deterministic;
          Alcotest.test_case "sharded beats central" `Quick
            test_sharded_beats_central;
          Alcotest.test_case "big-cell wall budget" `Slow
            test_big_cell_wall_budget;
        ] );
    ]
