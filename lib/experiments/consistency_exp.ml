(* Relaxed-consistency DSM modes A/B'd against the one-copy
   baseline (DESIGN.md §17).

   Three workloads:

   - Scoped writes (one-copy vs release): one writer updates N pages
     per lock scope while R readers hold copies of every page.
     One-copy pays R invalidation RPCs per write fault (N*R per
     scope); release defers them and pays R batched invalidation
     RPCs per flush, independent of N.

   - Shared counters (one-copy vs commutative): C clients each bump
     their own 64-bit slot of ONE page, round robin.  One-copy
     ping-pongs ownership (a recall + invalidations per turn);
     commutative keeps every client on a local copy and merges Add
     deltas at the home — zero coherence stalls.

   - F1 sort (one-copy vs release): the section 5.1 distributed sort
     on a full cluster, with the sorter object's segments in each
     mode.  Commutative is excluded: sorting writes are positional,
     not commutative, so a merge operator would corrupt the array. *)

type scoped_point = {
  mode : string;
  copyset : int;  (** readers holding copies of every page *)
  writes : int;  (** pages written inside the scope *)
  inval_rpcs : int;
  deferred : int;  (** per-copy invalidations skipped at fault time *)
  page_moves : int;
  elapsed_ms : float;
}

type counter_point = {
  mode : string;
  clients : int;
  increments : int;  (** per client *)
  stalls : int;  (** invalidations + recalls/downgrades sent by the server *)
  page_moves : int;
  merge_rpcs : int;
  converged : bool;  (** every slot ended at exactly [increments] *)
  elapsed_ms : float;
}

type sort_point = {
  mode : string;
  workers : int;
  total_ms : float;
  page_moves : int;
  inval_rpcs : int;
}

type result = {
  scoped : scoped_point list;
  counters : counter_point list;
  sort : sort_point list;
}

let mode_name = function
  | Ra.Partition.One_copy -> "one-copy"
  | Ra.Partition.Release -> "release"
  | Ra.Partition.Commutative Ra.Partition.Add -> "commutative(add)"
  | Ra.Partition.Commutative Ra.Partition.Max -> "commutative(max)"

(* A one-server micro-cluster with [clients] compute nodes, every
   segment in [mode].  Returns whatever [f] computes alongside the
   server so callers can diff its counters. *)
let with_micro ~mode ~clients f =
  Sim.exec (fun () ->
      let ether = Net.Ethernet.create (Sim.engine ()) () in
      let nd =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data
          ~ratp_config:Fixtures.fast_ratp_3 ()
      in
      let locate _ = 1 in
      let consistency _ = mode in
      let server = Dsm.Dsm_server.create nd ~consistency () in
      let cs =
        List.init clients (fun i ->
            let n =
              Ra.Node.create ether ~id:(2 + i) ~kind:Ra.Node.Compute
                ~ratp_config:Fixtures.fast_ratp_3 ()
            in
            (n, Dsm.Dsm_client.create n ~locate ~consistency ()))
      in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      f ~server ~seg ~cs)

let dsm server path = Obs.Registry.count (Dsm.Dsm_server.metrics server) path

let merge_rpcs cs =
  List.fold_left
    (fun acc (_, c) ->
      acc + Obs.Registry.count (Dsm.Dsm_client.metrics c) "dsm/mode/merge_rpcs")
    0 cs

let vspace_for seg ~pages =
  let vs = Ra.Virtual_space.create () in
  Ra.Virtual_space.map vs ~base:0 ~len:(pages * Ra.Page.size)
    ~prot:Ra.Virtual_space.Read_write seg;
  vs

(* --- workload 1: N writes per scope, R standing readers ------------ *)

let scoped_point ~mode ~pages ~readers =
  with_micro ~mode ~clients:(readers + 1) (fun ~server ~seg ~cs ->
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg ~size:(pages * Ra.Page.size);
      let vs = vspace_for seg ~pages in
      let (wn, wc), rs =
        match cs with [] -> assert false | w :: rs -> (w, rs)
      in
      (* every reader pulls a read copy of every page *)
      List.iter
        (fun (n, _) ->
          for p = 0 to pages - 1 do
            ignore
              (Ra.Mmu.read n.Ra.Node.mmu vs ~addr:(p * Ra.Page.size) ~len:1)
          done)
        rs;
      let invals0 = dsm server "dsm/invalidations" in
      let served0 = dsm server "dsm/pages_served" in
      let deferred0 = dsm server "dsm/mode/deferred_invals" in
      let t0 = Sim.now () in
      (* the scope: write one word in each page, then release *)
      for p = 0 to pages - 1 do
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int (p + 1));
        Ra.Mmu.write wn.Ra.Node.mmu vs ~addr:(p * Ra.Page.size) b
      done;
      Dsm.Dsm_client.flush_segment wc seg;
      let elapsed_ms = Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0) in
      (* release semantics: a reader re-reading after the flush sees
         every write of the scope *)
      (match rs with
      | [] -> ()
      | (rn, _) :: _ ->
          for p = 0 to pages - 1 do
            let b =
              Ra.Mmu.read rn.Ra.Node.mmu vs ~addr:(p * Ra.Page.size) ~len:8
            in
            assert (Int64.to_int (Bytes.get_int64_le b 0) = p + 1)
          done);
      {
        mode = mode_name mode;
        copyset = readers;
        writes = pages;
        inval_rpcs = dsm server "dsm/invalidations" - invals0;
        deferred = dsm server "dsm/mode/deferred_invals" - deferred0;
        page_moves = dsm server "dsm/pages_served" - served0;
        elapsed_ms;
      })

(* --- workload 2: counter slots on one shared page ------------------ *)

let counter_point ~mode ~clients ~increments =
  with_micro ~mode ~clients (fun ~server ~seg ~cs ->
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg ~size:Ra.Page.size;
      let vs = vspace_for seg ~pages:1 in
      let invals0 = dsm server "dsm/invalidations" in
      let downs0 = dsm server "dsm/downgrades" in
      let served0 = dsm server "dsm/pages_served" in
      let merges0 = merge_rpcs cs in
      let t0 = Sim.now () in
      (* round robin: client [i] bumps slot [i] of the shared page *)
      for _round = 1 to increments do
        List.iteri
          (fun i (n, _) ->
            let cur =
              Ra.Mmu.read n.Ra.Node.mmu vs ~addr:(8 * i) ~len:8
            in
            let v = Int64.to_int (Bytes.get_int64_le cur 0) in
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 (Int64.of_int (v + 1));
            Ra.Mmu.write n.Ra.Node.mmu vs ~addr:(8 * i) b)
          cs
      done;
      List.iter (fun (_, c) -> Dsm.Dsm_client.flush_segment c seg) cs;
      let elapsed_ms = Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0) in
      (* convergence: the store's page holds exactly [increments] in
         every client's slot *)
      let final =
        match
          Store.Segment_store.read_page (Dsm.Dsm_server.store server) seg 0
        with
        | Ra.Partition.Data b -> b
        | Ra.Partition.Zeroed -> Bytes.make Ra.Page.size '\000'
      in
      let converged = ref true in
      List.iteri
        (fun i _ ->
          if Int64.to_int (Bytes.get_int64_le final (8 * i)) <> increments
          then converged := false)
        cs;
      {
        mode = mode_name mode;
        clients;
        increments;
        stalls =
          dsm server "dsm/invalidations"
          - invals0
          + dsm server "dsm/downgrades"
          - downs0;
        page_moves = dsm server "dsm/pages_served" - served0;
        merge_rpcs = merge_rpcs cs - merges0;
        converged = !converged;
        elapsed_ms;
      })

(* --- workload 3: F1 sort under one-copy and release ---------------- *)

let sort_point ~mode ~elements ~workers =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:4 ~data:1 ~workstations:0 () in
      let cl = sys.Clouds.cluster in
      let obj =
        Apps.Sorter.create sys.Clouds.om ~consistency:mode ~capacity:elements
          ()
      in
      Apps.Sorter.fill sys.Clouds.om ~obj ~n:elements ~seed:42;
      let sum = Apps.Sorter.checksum sys.Clouds.om ~obj in
      let invals0 =
        Array.fold_left
          (fun acc s -> acc + dsm s "dsm/invalidations")
          0 cl.Clouds.Cluster.servers
      in
      let r = Apps.Sorter.distributed_sort sys.Clouds.om ~obj ~workers in
      assert (Apps.Sorter.is_sorted sys.Clouds.om ~obj);
      assert (Apps.Sorter.checksum sys.Clouds.om ~obj = sum);
      {
        mode = mode_name mode;
        workers;
        total_ms = r.Apps.Sorter.elapsed_ms;
        page_moves = r.Apps.Sorter.remote_page_moves;
        inval_rpcs =
          Array.fold_left
            (fun acc s -> acc + dsm s "dsm/invalidations")
            0 cl.Clouds.Cluster.servers
          - invals0;
      })

(* ------------------------------------------------------------------ *)

let run ?(pages = 8) ?(copysets = [ 1; 2; 4; 8 ]) ?(counter_clients = 4)
    ?(increments = 32) ?(elements = 4096) ?(workers = 4) () =
  let scoped =
    List.concat_map
      (fun readers ->
        [
          scoped_point ~mode:Ra.Partition.One_copy ~pages ~readers;
          scoped_point ~mode:Ra.Partition.Release ~pages ~readers;
        ])
      copysets
  in
  let counters =
    [
      counter_point ~mode:Ra.Partition.One_copy ~clients:counter_clients
        ~increments;
      counter_point
        ~mode:(Ra.Partition.Commutative Ra.Partition.Add)
        ~clients:counter_clients ~increments;
    ]
  in
  let sort =
    [
      sort_point ~mode:Ra.Partition.One_copy ~elements ~workers;
      sort_point ~mode:Ra.Partition.Release ~elements ~workers;
    ]
  in
  { scoped; counters; sort }

(* The tentpole's headline number: invalidation RPCs for the same
   scoped workload, one-copy over release (>= 2 expected whenever the
   scope holds >= 2 writes). *)
let inval_reduction r ~copyset =
  let find m =
    List.find_opt (fun (p : scoped_point) -> p.mode = m && p.copyset = copyset) r.scoped
  in
  match (find "one-copy", find "release") with
  | Some oc, Some rel when rel.inval_rpcs > 0 ->
      float_of_int oc.inval_rpcs /. float_of_int rel.inval_rpcs
  | _ -> 0.0

let to_json r =
  let open Obs.Export in
  let int i = int i in
  let scoped (p : scoped_point) =
    Obj
      [
        ("mode", Str p.mode); ("copyset", int p.copyset);
        ("writes", int p.writes); ("inval_rpcs", int p.inval_rpcs);
        ("deferred", int p.deferred); ("page_moves", int p.page_moves);
        ("elapsed_ms", Num p.elapsed_ms);
      ]
  in
  let counter (p : counter_point) =
    Obj
      [
        ("mode", Str p.mode); ("clients", int p.clients);
        ("increments", int p.increments); ("stalls", int p.stalls);
        ("page_moves", int p.page_moves); ("merge_rpcs", int p.merge_rpcs);
        ("converged", Bool p.converged); ("elapsed_ms", Num p.elapsed_ms);
      ]
  in
  let sort (p : sort_point) =
    Obj
      [
        ("mode", Str p.mode); ("workers", int p.workers);
        ("total_ms", Num p.total_ms); ("page_moves", int p.page_moves);
        ("inval_rpcs", int p.inval_rpcs);
      ]
  in
  Obj
    [
      ("scoped", Arr (List.map scoped r.scoped));
      ("counters", Arr (List.map counter r.counters));
      ("sort", Arr (List.map sort r.sort));
      ("inval_reduction_at_2", Num (inval_reduction r ~copyset:2));
    ]
