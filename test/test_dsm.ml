(* Tests for distributed shared memory: coherence (one-copy
   semantics), the segment lock service, and two-phase commit. *)

open Sim
module P = Dsm.Protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let dsm server path = Obs.Registry.count (Dsm.Dsm_server.metrics server) path

let mmu_faults node =
  Obs.Registry.count (Ra.Mmu.metrics node.Ra.Node.mmu) "mmu/faults"

(* A data server's 2PC participant, and its log. *)
let participant server = Dsm.Dsm_server.participant server
let wal server = Dsm.Participant.wal (participant server)

(* Fast RaTP config so crash-timeout tests finish quickly. *)
let fast_ratp =
  {
    Ratp.Endpoint.default_config with
    retry_initial = Time.ms 20;
    max_attempts = 3;
  }

type cluster = {
  eng : Engine.t;
  ether : Net.Ethernet.t;
  nd : Ra.Node.t;
  server : Dsm.Dsm_server.t;
  n1 : Ra.Node.t;
  c1 : Dsm.Dsm_client.t;
  n2 : Ra.Node.t;
  c2 : Dsm.Dsm_client.t;
}

let with_cluster ?group_commit_window f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let nd =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:fast_ratp ()
      in
      let server = Dsm.Dsm_server.create nd ?group_commit_window () in
      let locate _ = 1 in
      let n1 =
        Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute ~ratp_config:fast_ratp ()
      in
      let c1 = Dsm.Dsm_client.create n1 ~locate () in
      let n2 =
        Ra.Node.create ether ~id:3 ~kind:Ra.Node.Compute ~ratp_config:fast_ratp ()
      in
      let c2 = Dsm.Dsm_client.create n2 ~locate () in
      f { eng; ether; nd; server; n1; c1; n2; c2 })

let new_seg cl ~pages =
  let seg = Ra.Sysname.fresh cl.nd.Ra.Node.names in
  Store.Segment_store.create_segment
    (Dsm.Dsm_server.store cl.server)
    seg
    ~size:(pages * Ra.Page.size);
  seg

let vspace_for seg ~pages =
  let vs = Ra.Virtual_space.create () in
  Ra.Virtual_space.map vs ~base:0 ~len:(pages * Ra.Page.size)
    ~prot:Ra.Virtual_space.Read_write seg;
  vs

let read node vs ~addr ~len =
  Bytes.to_string (Ra.Mmu.read node.Ra.Node.mmu vs ~addr ~len)

let write node vs ~addr s =
  Ra.Mmu.write node.Ra.Node.mmu vs ~addr (Bytes.of_string s)

(* ------------------------------------------------------------------ *)
(* Coherence *)

let test_shared_read () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let page = Bytes.make Ra.Page.size 'a' in
      Store.Segment_store.write_page (Dsm.Dsm_server.store cl.server) seg 0 page;
      let vs = vspace_for seg ~pages:1 in
      Alcotest.(check string) "c1 sees store" "aaaa" (read cl.n1 vs ~addr:0 ~len:4);
      Alcotest.(check string) "c2 sees store" "aaaa" (read cl.n2 vs ~addr:0 ~len:4);
      Alcotest.(check (list int))
        "both in copyset" [ 2; 3 ]
        (Dsm.Dsm_server.copyset_of cl.server seg 0);
      check_bool "no owner" true (Dsm.Dsm_server.owner_of cl.server seg 0 = None))

let test_write_then_remote_read () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      write cl.n1 vs ~addr:0 "hello";
      check_bool "c1 owns" true
        (Dsm.Dsm_server.owner_of cl.server seg 0 = Some 2);
      Alcotest.(check string)
        "c2 reads c1's write" "hello"
        (read cl.n2 vs ~addr:0 ~len:5);
      check_bool "ownership returned" true
        (Dsm.Dsm_server.owner_of cl.server seg 0 = None);
      check_int "one downgrade" 1 (dsm cl.server "dsm/downgrades"))

let test_write_write_invalidation () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      write cl.n1 vs ~addr:0 "first";
      write cl.n2 vs ~addr:5 "second";
      check_bool "c2 owns now" true
        (Dsm.Dsm_server.owner_of cl.server seg 0 = Some 3);
      check_bool "c1 frame invalidated" true
        (Ra.Mmu.resident cl.n1.Ra.Node.mmu seg 0 = None);
      check_bool "c1 received invalidation" true
        (Obs.Registry.count (Dsm.Dsm_client.metrics cl.c1) "dsmc/invals" >= 1);
      (* c2's write copy carried c1's bytes: both writes visible *)
      Alcotest.(check string)
        "merged contents" "firstsecond"
        (read cl.n2 vs ~addr:0 ~len:11);
      (* and c1 re-reading sees everything *)
      Alcotest.(check string)
        "c1 rereads coherently" "firstsecond"
        (read cl.n1 vs ~addr:0 ~len:11))

let test_read_copies_invalidated_on_write () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      ignore (read cl.n1 vs ~addr:0 ~len:1);
      ignore (read cl.n2 vs ~addr:0 ~len:1);
      write cl.n1 vs ~addr:0 "z";
      check_bool "c2 read copy dropped" true
        (Ra.Mmu.resident cl.n2.Ra.Node.mmu seg 0 = None);
      Alcotest.(check string) "c2 refetches" "z" (read cl.n2 vs ~addr:0 ~len:1))

let test_write_contention_converges () =
  (* three nodes hammering writes on one page: the backoff must break
     the invalidation/reply livelock and let everyone finish *)
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:fast_ratp () in
      let server = Dsm.Dsm_server.create nd () in
      let locate _ = 1 in
      let nodes =
        List.map
          (fun id ->
            let n = Ra.Node.create ether ~id ~kind:Ra.Node.Compute ~ratp_config:fast_ratp () in
            ignore (Dsm.Dsm_client.create n ~locate ());
            n)
          [ 2; 3; 4 ]
      in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      Store.Segment_store.create_segment (Dsm.Dsm_server.store server) seg
        ~size:Ra.Page.size;
      let vs = vspace_for seg ~pages:1 in
      let done_ = Semaphore.create 0 in
      List.iteri
        (fun i node ->
          ignore
            (Sim.spawn "writer" (fun () ->
                 for k = 0 to 9 do
                   Ra.Mmu.write node.Ra.Node.mmu vs ~addr:(8 * ((10 * i) + k))
                     (Bytes.make 8 (Char.chr (65 + i)))
                 done;
                 Semaphore.release done_)))
        nodes;
      for _ = 1 to 3 do
        Semaphore.acquire done_
      done;
      (* all thirty writes present, each node's region intact *)
      let final = read (List.hd nodes) vs ~addr:0 ~len:(8 * 30) in
      List.iteri
        (fun i _node ->
          let expected = String.make 80 (Char.chr (65 + i)) in
          Alcotest.(check string)
            (Printf.sprintf "region %d intact" i)
            expected
            (String.sub final (80 * i) 80))
        nodes;
      check_bool "converged promptly" true (Sim.now () < Time.sec 30))

let prop_one_copy_semantics =
  QCheck.Test.make ~name:"one-copy semantics vs sequential model" ~count:30
    QCheck.(
      pair small_nat
        (list_of_size Gen.(5 -- 40)
           (triple bool (int_range 0 (2 * 8192 - 1)) (int_range 0 255))))
    (fun (seed, ops) ->
      let ok = ref true in
      with_cluster (fun cl ->
          ignore seed;
          let pages = 2 in
          let seg = new_seg cl ~pages in
          let vs = vspace_for seg ~pages in
          let model = Bytes.make (pages * Ra.Page.size) '\000' in
          List.iter
            (fun (use_c1, off, v) ->
              let node = if use_c1 then cl.n1 else cl.n2 in
              if v mod 2 = 0 then begin
                (* write one byte *)
                let b = Bytes.make 1 (Char.chr v) in
                Ra.Mmu.write node.Ra.Node.mmu vs ~addr:off b;
                Bytes.set model off (Char.chr v)
              end
              else begin
                let got = Ra.Mmu.read node.Ra.Node.mmu vs ~addr:off ~len:1 in
                if Bytes.get got 0 <> Bytes.get model off then ok := false
              end)
            ops);
      !ok)

(* ------------------------------------------------------------------ *)
(* Fast path: batched flush, byte accounting *)

let test_batched_flush () =
  with_cluster (fun cl ->
      let pages = 3 in
      let seg = new_seg cl ~pages in
      let vs = vspace_for seg ~pages in
      for p = 0 to pages - 1 do
        write cl.n1 vs ~addr:(p * Ra.Page.size) (Printf.sprintf "page-%d" p)
      done;
      let puts () =
        Obs.Registry.count (Dsm.Dsm_client.metrics cl.c1) "dsmc/puts"
      in
      let rpcs0 = puts () in
      Dsm.Dsm_client.flush_segment cl.c1 seg;
      check_int "one batched RPC" 1 (puts () - rpcs0);
      check_bool "frames clean" true
        (Ra.Mmu.dirty_pages cl.n1.Ra.Node.mmu seg = []);
      Alcotest.(check (list string))
        "flushed contents" [ "page-0"; "page-1"; "page-2" ]
        (List.init pages (fun p ->
             match
               Store.Segment_store.read_page (Dsm.Dsm_server.store cl.server) seg p
             with
             | Ra.Partition.Data d -> Bytes.to_string (Bytes.sub d 0 6)
             | Ra.Partition.Zeroed -> "ZEROED")))

(* Pin the wire-size model for every batch-carrying message: 24-byte
   per-entry headers, 48/64-byte envelopes. *)
let test_request_bytes_accounting () =
  let seg = Ra.Sysname.fresh (Ra.Sysname.make_gen ~node:99) in
  let ws =
    [ (seg, 0, Bytes.create 8192); (seg, 1, Bytes.create 100) ]
  in
  let ws_bytes = 24 + 8192 + (24 + 100) in
  check_int "Overwrite" (48 + ws_bytes) (P.request_bytes (P.Overwrite ws));
  (* span sets: 24 bytes per page plus 8 per span, plus the bytes *)
  let spans =
    [
      (seg, 0, [ (0, Bytes.create 16); (100, Bytes.create 4) ]);
      (seg, 1, [ (0, Bytes.create 8192) ]);
    ]
  in
  let spans_bytes = 24 + (8 + 16) + (8 + 4) + (24 + 8 + 8192) in
  check_int "Prepare" (64 + spans_bytes)
    (P.request_bytes (P.Prepare { txn = (1, 1); writes = spans }));
  check_int "Put_spans" (48 + spans_bytes)
    (P.request_bytes (P.Put_spans spans));
  (* sysname lists charge the same 24-byte entries as descriptors *)
  check_int "Objects" (32 + (24 * 3))
    (P.request_bytes (P.Objects [ seg; seg; seg ]));
  check_int "Get_page carries no payload" 48
    (P.request_bytes
       (P.Get_page { seg; page = 0; mode = Ra.Partition.Read }))

let test_flush_and_drop () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      write cl.n1 vs ~addr:0 "durable";
      Dsm.Dsm_client.flush_segment cl.c1 seg;
      (match
         Store.Segment_store.read_page (Dsm.Dsm_server.store cl.server) seg 0
       with
      | Ra.Partition.Data d ->
          Alcotest.(check string)
            "flushed to store" "durable"
            (Bytes.to_string (Bytes.sub d 0 7))
      | Ra.Partition.Zeroed -> Alcotest.fail "flush did not reach store");
      (* now dirty local changes dropped on abort *)
      write cl.n1 vs ~addr:0 "garbage";
      Ra.Mmu.drop_segment cl.n1.Ra.Node.mmu seg;
      Alcotest.(check string)
        "refetch sees flushed version" "durable"
        (read cl.n1 vs ~addr:0 ~len:7))

let test_missing_segment_error () =
  with_cluster (fun cl ->
      let bogus = Ra.Sysname.fresh cl.n1.Ra.Node.names in
      let vs = vspace_for bogus ~pages:1 in
      let raised =
        try
          ignore (read cl.n1 vs ~addr:0 ~len:1);
          false
        with Ra.Partition.No_segment _ -> true
      in
      check_bool "missing segment raises" true raised)

(* A writeback to a segment its home no longer stores must fail: a
   Batch_ok would let the client mark the frame clean and the write
   would vanish without a trace. *)
let test_flush_deleted_segment_keeps_dirty () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      write cl.n1 vs ~addr:0 "orphan";
      (match P.call cl.n2 ~dst:1 (P.Delete_segment seg) with
      | Ok P.Segment_ok -> ()
      | Ok _ | Error _ -> Alcotest.fail "delete failed");
      let raised =
        try
          Dsm.Dsm_client.flush_segment cl.c1 seg;
          false
        with Ra.Partition.No_segment s -> Ra.Sysname.equal s seg
      in
      check_bool "flush raises No_segment" true raised;
      check_bool "frame still dirty" true
        (Ra.Mmu.is_dirty cl.n1.Ra.Node.mmu seg 0);
      (* the whole batch is rejected before any page is applied *)
      let live = new_seg cl ~pages:1 in
      let spans = [ (0, Bytes.of_string "x") ] in
      (match
         P.call cl.n2 ~dst:1 (P.Put_spans [ (live, 0, spans); (seg, 0, spans) ])
       with
      | Ok P.Segment_error -> ()
      | Ok _ | Error _ -> Alcotest.fail "mixed batch not rejected");
      check_bool "live page untouched" true
        (Store.Segment_store.read_page (Dsm.Dsm_server.store cl.server) live 0
        = Ra.Partition.Zeroed))

let test_segment_rpc_lifecycle () =
  with_cluster (fun cl ->
      let seg = Ra.Sysname.fresh cl.n1.Ra.Node.names in
      let create =
        P.Create_segment { seg; size = Ra.Page.size }
      in
      (match P.call cl.n1 ~dst:1 create with
      | Ok P.Segment_ok -> ()
      | Ok _ | Error _ -> Alcotest.fail "create failed");
      (match P.call cl.n1 ~dst:1 create with
      | Ok P.Segment_error -> ()
      | Ok _ | Error _ -> Alcotest.fail "duplicate create not rejected");
      let vs = vspace_for seg ~pages:1 in
      write cl.n1 vs ~addr:0 "x";
      (match P.call cl.n1 ~dst:1 (P.Delete_segment seg) with
      | Ok P.Segment_ok -> ()
      | Ok _ | Error _ -> Alcotest.fail "delete failed"))

let test_owner_crash_recovers_stored_state () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      write cl.n1 vs ~addr:0 "committedA";
      Dsm.Dsm_client.flush_segment cl.c1 seg;
      write cl.n1 vs ~addr:0 "uncommitted";
      Ra.Node.crash cl.n1;
      (* c2's read recalls from the dead owner, times out, and falls
         back to the stored copy: the uncommitted write is lost *)
      Alcotest.(check string)
        "pre-crash stored contents" "committedA"
        (read cl.n2 vs ~addr:0 ~len:10))

(* ------------------------------------------------------------------ *)
(* Lock table (direct) *)

let txn n = (n, 0)

let test_locks_shared_and_exclusive () =
  Sim.exec (fun () ->
      let lt = Dsm.Lock_table.create () in
      let seg = Ra.Sysname.fresh (Ra.Sysname.make_gen ~node:0) in
      check_bool "r1 granted" true
        (Dsm.Lock_table.acquire lt seg (txn 1) P.R = `Granted);
      check_bool "r2 granted" true
        (Dsm.Lock_table.acquire lt seg (txn 2) P.R = `Granted);
      (* writer must wait *)
      let w_granted = ref false in
      ignore
        (Sim.spawn "w" (fun () ->
             (match Dsm.Lock_table.acquire lt seg (txn 3) P.W with
             | `Granted -> w_granted := true
             | `Cancelled -> ())));
      Sim.sleep (Time.ms 1);
      check_bool "writer waits" false !w_granted;
      check_int "queued" 1 (Dsm.Lock_table.queue_length lt seg);
      Dsm.Lock_table.release_txn lt (txn 1);
      Sim.sleep (Time.ms 1);
      check_bool "still waits for second reader" false !w_granted;
      Dsm.Lock_table.release_txn lt (txn 2);
      Sim.sleep (Time.ms 1);
      check_bool "writer granted" true !w_granted;
      check_bool "holds W" true
        (Dsm.Lock_table.holds lt seg (txn 3) = Some P.W))

let test_locks_fifo_blocks_later_readers () =
  Sim.exec (fun () ->
      let lt = Dsm.Lock_table.create () in
      let seg = Ra.Sysname.fresh (Ra.Sysname.make_gen ~node:0) in
      ignore (Dsm.Lock_table.acquire lt seg (txn 1) P.R);
      let order = ref [] in
      ignore
        (Sim.spawn "w" (fun () ->
             ignore (Dsm.Lock_table.acquire lt seg (txn 2) P.W);
             order := "w" :: !order;
             Dsm.Lock_table.release_txn lt (txn 2)));
      Sim.sleep (Time.ms 1);
      ignore
        (Sim.spawn "r" (fun () ->
             ignore (Dsm.Lock_table.acquire lt seg (txn 3) P.R);
             order := "r" :: !order));
      Sim.sleep (Time.ms 1);
      Dsm.Lock_table.release_txn lt (txn 1);
      Sim.sleep (Time.ms 1);
      Alcotest.(check (list string))
        "writer first (fifo)" [ "w"; "r" ] (List.rev !order))

let test_locks_upgrade () =
  Sim.exec (fun () ->
      let lt = Dsm.Lock_table.create () in
      let seg = Ra.Sysname.fresh (Ra.Sysname.make_gen ~node:0) in
      ignore (Dsm.Lock_table.acquire lt seg (txn 1) P.R);
      (* sole reader upgrades immediately *)
      check_bool "upgrade granted" true
        (Dsm.Lock_table.acquire lt seg (txn 1) P.W = `Granted);
      check_bool "holds W" true (Dsm.Lock_table.holds lt seg (txn 1) = Some P.W);
      (* idempotent re-acquire *)
      check_bool "W again" true
        (Dsm.Lock_table.acquire lt seg (txn 1) P.W = `Granted);
      check_bool "R while W" true
        (Dsm.Lock_table.acquire lt seg (txn 1) P.R = `Granted))

let test_locks_cancellation () =
  Sim.exec (fun () ->
      let lt = Dsm.Lock_table.create () in
      let seg = Ra.Sysname.fresh (Ra.Sysname.make_gen ~node:0) in
      ignore (Dsm.Lock_table.acquire lt seg (txn 1) P.W);
      let outcome = ref None in
      ignore
        (Sim.spawn "w2" (fun () ->
             outcome := Some (Dsm.Lock_table.acquire lt seg (txn 2) P.W)));
      Sim.sleep (Time.ms 1);
      (* cancelling txn2 wakes its queued request with `Cancelled` *)
      Dsm.Lock_table.release_txn lt (txn 2);
      Sim.sleep (Time.ms 1);
      check_bool "cancelled" true (!outcome = Some `Cancelled);
      check_bool "holder unchanged" true
        (Dsm.Lock_table.holds lt seg (txn 1) = Some P.W))

(* [release_txn] visits only the entries the transaction is involved
   in, yet it must grant in the order a walk of the whole table gives,
   since each grant schedules a wake-up.  Here a transaction holds W
   on 2 of 200 segments, each with a writer queued behind it; the
   reference order is a [Ra.Sysname.Table] holding the same 200
   segments, filled in the same order.  Every pair adjacent in that
   walk is tried, in both acquisition orders: such a pair often shares
   a bucket, where the newer binding comes first. *)
let test_locks_release_in_table_order () =
  let gen = Ra.Sysname.make_gen ~node:3 in
  let segs = List.init 200 (fun _ -> Ra.Sysname.fresh gen) in
  let walk =
    let tbl = Ra.Sysname.Table.create 32 in
    List.iter (fun seg -> Ra.Sysname.Table.replace tbl seg ()) segs;
    Ra.Sysname.Table.fold (fun seg () acc -> seg :: acc) tbl [] |> List.rev
    |> Array.of_list
  in
  let granted_order first second =
    Sim.exec (fun () ->
        let lt = Dsm.Lock_table.create () in
        List.iteri
          (fun i seg ->
            ignore (Dsm.Lock_table.acquire lt seg (txn (1000 + i)) P.R);
            Dsm.Lock_table.release_txn lt (txn (1000 + i)))
          segs;
        ignore (Dsm.Lock_table.acquire lt first (txn 1) P.W);
        ignore (Dsm.Lock_table.acquire lt second (txn 1) P.W);
        let order = ref [] in
        List.iteri
          (fun i seg ->
            ignore
              (Sim.spawn "waiter" (fun () ->
                   ignore (Dsm.Lock_table.acquire lt seg (txn (2 + i)) P.W);
                   order := seg :: !order)))
          [ first; second ];
        Sim.sleep (Time.ms 1);
        check_int "both queued" 2
          (Dsm.Lock_table.queue_length lt first
          + Dsm.Lock_table.queue_length lt second);
        Dsm.Lock_table.release_txn lt (txn 1);
        Sim.sleep (Time.ms 1);
        List.rev !order)
  in
  for k = 0 to Array.length walk - 2 do
    let a = walk.(k) and b = walk.(k + 1) in
    List.iter
      (fun (first, second) ->
        if granted_order first second <> [ a; b ] then
          Alcotest.failf "walk ranks %d, %d: granted out of table order" k
            (k + 1))
      [ (a, b); (b, a) ]
  done;
  let a = walk.(0) and b = walk.(Array.length walk - 1) in
  check_bool "first and last of the walk" true (granted_order b a = [ a; b ])

(* ------------------------------------------------------------------ *)
(* Lock service over RaTP + 2PC *)

let rpc cl node body = P.call node ~dst:cl.nd.Ra.Node.id body

let test_lock_service_and_abort_release () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let t1 = (2, 1) and t2 = (3, 1) in
      (match rpc cl cl.n1 (P.Lock_segment { seg; kind = P.W; txn = t1 }) with
      | Ok P.Lock_granted -> ()
      | Ok _ | Error _ -> Alcotest.fail "t1 lock failed");
      let t2_granted_at = ref None in
      ignore
        (Sim.spawn "t2-locker" (fun () ->
             match rpc cl cl.n2 (P.Lock_segment { seg; kind = P.W; txn = t2 }) with
             | Ok P.Lock_granted -> t2_granted_at := Some (Sim.now ())
             | Ok _ | Error _ -> ()));
      Sim.sleep (Time.ms 50);
      check_bool "t2 still waiting" true (!t2_granted_at = None);
      (match rpc cl cl.n1 (P.Abort { txn = t1 }) with
      | Ok P.Txn_done -> ()
      | Ok _ | Error _ -> Alcotest.fail "abort failed");
      Sim.sleep (Time.ms 50);
      check_bool "t2 granted after abort released locks" true
        (!t2_granted_at <> None))

let test_two_phase_commit_applies () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let t1 = (2, 7) in
      let page = Bytes.make Ra.Page.size 'c' in
      (match rpc cl cl.n1 (P.Prepare { txn = t1; writes = [ (seg, 0, [ (0, page) ]) ] }) with
      | Ok (P.Vote true) -> ()
      | Ok _ | Error _ -> Alcotest.fail "prepare failed");
      (* not yet applied *)
      (match Store.Segment_store.read_page (Dsm.Dsm_server.store cl.server) seg 0 with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "applied before commit");
      (match rpc cl cl.n1 (P.Commit { txn = t1 }) with
      | Ok P.Txn_done -> ()
      | Ok _ | Error _ -> Alcotest.fail "commit failed");
      (match Store.Segment_store.read_page (Dsm.Dsm_server.store cl.server) seg 0 with
      | Ra.Partition.Data d -> check_bool "applied" true (Bytes.get d 0 = 'c')
      | Ra.Partition.Zeroed -> Alcotest.fail "commit did not apply");
      check_int "one commit" 1 (dsm cl.server "dsm/commits");
      (* WAL has prepare + commit *)
      check_bool "wal recorded" true
        (List.length (Store.Wal.records (wal cl.server)) >= 2))

let test_two_phase_abort_discards () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let t1 = (2, 8) in
      let page = Bytes.make Ra.Page.size 'x' in
      (match rpc cl cl.n1 (P.Prepare { txn = t1; writes = [ (seg, 0, [ (0, page) ]) ] }) with
      | Ok (P.Vote true) -> ()
      | Ok _ | Error _ -> Alcotest.fail "prepare failed");
      (match rpc cl cl.n1 (P.Abort { txn = t1 }) with
      | Ok P.Txn_done -> ()
      | Ok _ | Error _ -> Alcotest.fail "abort failed");
      (match Store.Segment_store.read_page (Dsm.Dsm_server.store cl.server) seg 0 with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "abort leaked writes");
      check_int "one abort" 1 (dsm cl.server "dsm/aborts"))

let test_prepare_unknown_segment_votes_no () =
  with_cluster (fun cl ->
      let bogus = Ra.Sysname.fresh cl.n1.Ra.Node.names in
      let t1 = (2, 9) in
      match
        rpc cl cl.n1
          (P.Prepare { txn = t1; writes = [ (bogus, 0, [ (0, Bytes.create 8) ]) ] })
      with
      | Ok (P.Vote false) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected no vote")

let test_presumed_abort_times_out () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let t1 = (2, 10) in
      (match rpc cl cl.n1 (P.Lock_segment { seg; kind = P.W; txn = t1 }) with
      | Ok P.Lock_granted -> ()
      | Ok _ | Error _ -> Alcotest.fail "lock failed");
      let page = Bytes.make Ra.Page.size 'p' in
      (match rpc cl cl.n1 (P.Prepare { txn = t1; writes = [ (seg, 0, [ (0, page) ]) ] }) with
      | Ok (P.Vote true) -> ()
      | Ok _ | Error _ -> Alcotest.fail "prepare failed");
      (* coordinator goes silent and no oracle knows the outcome:
         past the 60 s deadline the participant must self-abort and
         release the lock *)
      Sim.sleep (Time.sec 61);
      check_int "aborted" 1 (dsm cl.server "dsm/aborts");
      (match Store.Segment_store.read_page (Dsm.Dsm_server.store cl.server) seg 0 with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "leaked");
      let t2 = (3, 1) in
      match rpc cl cl.n2 (P.Lock_segment { seg; kind = P.W; txn = t2 }) with
      | Ok P.Lock_granted -> ()
      | Ok _ | Error _ -> Alcotest.fail "lock not released by presumed abort")

let test_server_crash_recovery () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      write cl.n1 vs ~addr:0 "persisted";
      Dsm.Dsm_client.flush_segment cl.c1 seg;
      Ra.Mmu.drop_segment cl.n1.Ra.Node.mmu seg;
      Ra.Node.crash cl.nd;
      Sim.sleep (Time.ms 100);
      Ra.Node.restart cl.nd;
      Dsm.Dsm_server.recover cl.server;
      (* stable storage survived; coherence state was rebuilt *)
      Alcotest.(check string)
        "store contents survive crash" "persisted"
        (read cl.n2 vs ~addr:0 ~len:9))

(* ------------------------------------------------------------------ *)
(* The resolver: the presumed-abort timer and recovery settle an
   in-doubt entry through the outcome oracle *)

(* Lock page 0 of [seg] for [txn] and prepare a write of [c] over it. *)
let prepare_page cl txn seg c =
  (match rpc cl cl.n1 (P.Lock_segment { seg; kind = P.W; txn }) with
  | Ok P.Lock_granted -> ()
  | Ok _ | Error _ -> Alcotest.fail "lock failed");
  let page = Bytes.make Ra.Page.size c in
  match rpc cl cl.n1 (P.Prepare { txn; writes = [ (seg, 0, [ (0, page) ]) ] }) with
  | Ok (P.Vote true) -> ()
  | Ok _ | Error _ -> Alcotest.fail "prepare failed"

let first_byte server seg =
  match Store.Segment_store.read_page (Dsm.Dsm_server.store server) seg 0 with
  | Ra.Partition.Data d -> Some (Bytes.get d 0)
  | Ra.Partition.Zeroed -> None

let check_byte = Alcotest.(check (option char))

let restart_and_recover cl =
  Ra.Node.crash cl.nd;
  Ra.Node.restart cl.nd;
  Dsm.Dsm_server.recover cl.server

(* The oracle says Pending at recovery and at the first deadline,
   then Committed: the entry stays prepared (no pre-crash timer may
   abort it) and commits at the next deadline, counted like any
   commit. *)
let test_recovery_waits_out_pending () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let verdict : Dsm.Participant.verdict ref = ref `Pending in
      Dsm.Participant.set_oracle (participant cl.server) (fun _ -> !verdict);
      prepare_page cl (2, 20) seg 'a';
      Sim.sleep (Time.ms 100);
      restart_and_recover cl;
      Sim.sleep (Time.sec 90);
      check_byte "still in doubt" None (first_byte cl.server seg);
      check_int "nothing aborted" 0 (dsm cl.server "dsm/aborts");
      verdict := `Committed;
      Sim.sleep (Time.sec 40);
      check_byte "committed at the next deadline" (Some 'a')
        (first_byte cl.server seg);
      check_int "commit counted" 1 (dsm cl.server "dsm/commits");
      check_int "still nothing aborted" 0 (dsm cl.server "dsm/aborts"))

(* The coordinator decided commit but its Commit never arrived: the
   presumed-abort timer asks before it aborts. *)
let test_timer_asks_oracle () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      Dsm.Participant.set_oracle (participant cl.server) (fun _ -> `Committed);
      prepare_page cl (2, 21) seg 'b';
      Sim.sleep (Time.sec 61);
      check_byte "write applied" (Some 'b') (first_byte cl.server seg);
      check_int "one commit" 1 (dsm cl.server "dsm/commits");
      check_int "nothing aborted" 0 (dsm cl.server "dsm/aborts"))

(* A commit the resolver decides, by timer or at recovery, reaches the
   segment's backup like a commit by message. *)
let test_resolved_commit_mirrored () =
  with_cluster (fun cl ->
      let nb =
        Ra.Node.create cl.ether ~id:4 ~kind:Ra.Node.Data ~ratp_config:fast_ratp ()
      in
      let backup = Dsm.Dsm_server.create nb () in
      let seg = new_seg cl ~pages:1 and seg2 = new_seg cl ~pages:1 in
      List.iter
        (fun s ->
          Store.Segment_store.create_segment (Dsm.Dsm_server.store backup) s
            ~size:Ra.Page.size)
        [ seg; seg2 ];
      Dsm.Dsm_server.set_mirrors cl.server (fun _ -> [ nb.Ra.Node.id ]);
      Dsm.Participant.set_oracle (participant cl.server) (fun _ -> `Committed);
      prepare_page cl (2, 22) seg 'c';
      Sim.sleep (Time.sec 61);
      check_byte "timer commit mirrored" (Some 'c') (first_byte backup seg);
      prepare_page cl (2, 23) seg2 'd';
      restart_and_recover cl;
      Sim.sleep (Time.sec 1);
      check_byte "recovery commit mirrored" (Some 'd') (first_byte backup seg2);
      check_int "both counted" 2 (dsm cl.server "dsm/commits"))

(* Under group commit the Commit applies its page before its record is
   durable; a crash in that window leaves the transaction undecided.
   Recovery undoes the page, and an Unknown verdict makes the
   recovering server log the abort and release the lock. *)
let test_unknown_at_recovery_logs_abort () =
  with_cluster ~group_commit_window:(Time.ms 5) (fun cl ->
      let seg = new_seg cl ~pages:1 in
      Store.Segment_store.write_page (Dsm.Dsm_server.store cl.server) seg 0
        (Bytes.make Ra.Page.size 'o');
      Dsm.Participant.set_oracle (participant cl.server) (fun _ -> `Unknown);
      let t1 = (2, 24) in
      prepare_page cl t1 seg 'n';
      ignore
        (Sim.spawn "committer" (fun () ->
             ignore (rpc cl cl.n1 (P.Commit { txn = t1 }))));
      while first_byte cl.server seg <> Some 'n' do
        Sim.sleep (Time.us 100)
      done;
      restart_and_recover cl;
      check_byte "crash-window apply undone" (Some 'o') (first_byte cl.server seg);
      Sim.sleep (Time.ms 200);
      check_bool "abort logged" true
        (List.exists
           (function Store.Wal.Aborted t -> t = t1 | _ -> false)
           (Store.Wal.records (wal cl.server)));
      check_int "one abort" 1 (dsm cl.server "dsm/aborts");
      check_byte "before-image stands" (Some 'o') (first_byte cl.server seg);
      match rpc cl cl.n2 (P.Lock_segment { seg; kind = P.W; txn = (3, 1) }) with
      | Ok P.Lock_granted -> ()
      | Ok _ | Error _ -> Alcotest.fail "abort did not release the lock")

(* Recovery hands the entry to the resolver, which blocks forcing its
   Committed record; the coordinator's Commit lands in that window.
   The entry settles once: one record, one commit. *)
let test_prepared_settles_once () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      Dsm.Participant.set_oracle (participant cl.server) (fun _ -> `Committed);
      let t1 = (2, 25) in
      prepare_page cl t1 seg 'e';
      restart_and_recover cl;
      (match rpc cl cl.n1 (P.Commit { txn = t1 }) with
      | Ok P.Txn_done -> ()
      | Ok _ | Error _ -> Alcotest.fail "commit failed");
      Sim.sleep (Time.ms 200);
      check_int "one commit record" 1
        (List.length
           (List.filter
              (function Store.Wal.Committed t -> t = t1 | _ -> false)
              (Store.Wal.records (wal cl.server))));
      check_int "one commit" 1 (dsm cl.server "dsm/commits");
      check_byte "write applied" (Some 'e') (first_byte cl.server seg))

(* A group-commit window armed before a crash fires on a dead server:
   its buffered record must not become durable while the node is
   down. *)
let test_crashed_server_flushes_nothing () =
  with_cluster ~group_commit_window:(Time.ms 5) (fun cl ->
      let wal = wal cl.server in
      ignore (Store.Wal.enqueue wal (Store.Wal.Committed (2, 26)));
      Ra.Node.crash cl.nd;
      Sim.sleep (Time.ms 200);
      check_int "nothing flushed" 0 (Store.Wal.flushed_lsn wal))

(* ------------------------------------------------------------------ *)
(* The participant driven directly: no coordinator, and no RaTP round
   trip for the step under test *)

let in_doubt cl = Dsm.Participant.in_doubt (participant cl.server)
let check_txns = Alcotest.(check (list (pair int int)))

(* Prepare a write of [c] over page 0 of [seg] straight into the
   participant, as a Prepare message would. *)
let prepare_direct cl txn seg c =
  check_bool "votes yes" true
    (Dsm.Participant.prepare (participant cl.server) txn
       [ (seg, 0, [ (0, Bytes.make Ra.Page.size c) ]) ])

(* A prepared transaction outlives a crash: recovery re-installs it
   with its write lock, and only the oracle's answer ends it. *)
let test_in_doubt_survives_recovery () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let verdict : Dsm.Participant.verdict ref = ref `Pending in
      Dsm.Participant.set_oracle (participant cl.server) (fun _ -> !verdict);
      let txn = (2, 30) in
      prepare_direct cl txn seg 'f';
      check_txns "prepared" [ txn ] (in_doubt cl);
      restart_and_recover cl;
      check_txns "still prepared after recovery" [ txn ] (in_doubt cl);
      (* a free lock is granted within one round trip *)
      let granted = ref false in
      ignore
        (Sim.spawn "rival" (fun () ->
             match
               rpc cl cl.n2 (P.Lock_segment { seg; kind = P.W; txn = (3, 1) })
             with
             | Ok P.Lock_granted -> granted := true
             | Ok _ | Error _ -> ()));
      Sim.sleep (Time.ms 100);
      check_bool "write lock held again" false !granted;
      check_txns "pending keeps it prepared" [ txn ] (in_doubt cl);
      verdict := `Committed;
      Sim.sleep (Time.sec 61);
      check_txns "the oracle's answer settles it" [] (in_doubt cl);
      check_byte "committed" (Some 'f') (first_byte cl.server seg))

(* Each end of a prepared entry empties [in_doubt] and counts its
   outcome once. *)
let ends_in_doubt ~committed finish () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let txn = (2, 31) in
      prepare_direct cl txn seg 'g';
      check_txns "prepared" [ txn ] (in_doubt cl);
      finish cl txn;
      check_txns "settled" [] (in_doubt cl);
      check_int "commits"
        (if committed then 1 else 0)
        (dsm cl.server "dsm/commits");
      check_int "aborts"
        (if committed then 0 else 1)
        (dsm cl.server "dsm/aborts");
      check_byte "store"
        (if committed then Some 'g' else None)
        (first_byte cl.server seg))

let by_decision ~commit cl txn =
  Dsm.Participant.decide (participant cl.server) txn ~commit

let by_timer _ _ = Sim.sleep (Time.sec 61)

let by_resolver_after_recovery cl _ =
  Dsm.Participant.set_oracle (participant cl.server) (fun _ -> `Committed);
  restart_and_recover cl;
  Sim.sleep (Time.sec 1)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Concurrent coherence fan-out *)

type fanout_obs = {
  fo_owner : Net.Address.t option;
  fo_copyset : Net.Address.t list;
  fo_invals : int;
  fo_downs : int;
  fo_stale : int;  (** readers still holding a frame after the write *)
  fo_retrans : int;  (** server-endpoint retransmissions *)
  fo_end_ms : float;  (** simulated completion time *)
}

(* [k] readers pull a read copy of page 0 through their MMUs, then a
   separate writer faults it for write; optionally the first reader
   reads again afterwards (recall/downgrade path).  [drop] installs
   uniform frame loss for the duration of the write fault. *)
let fanout_scenario ?(seed = 42) ?(drop = 0.0) ?(reread = false) ~readers:k ()
    =
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      (* default RaTP config: under loss the retransmission budget,
         not the test, is what makes invalidations reliable *)
      let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data () in
      let server = Dsm.Dsm_server.create nd () in
      let locate _ = 1 in
      let mk id =
        let n = Ra.Node.create ether ~id ~kind:Ra.Node.Compute () in
        ignore (Dsm.Dsm_client.create n ~locate ());
        n
      in
      let rnodes = List.init k (fun i -> mk (10 + i)) in
      let wn = mk 9 in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg ~size:Ra.Page.size;
      let vs = vspace_for seg ~pages:1 in
      List.iter (fun n -> ignore (read n vs ~addr:0 ~len:4)) rnodes;
      Net.Fault.set_drop_probability (Net.Ethernet.fault ether) drop;
      write wn vs ~addr:0 "fresh";
      Net.Fault.set_drop_probability (Net.Ethernet.fault ether) 0.0;
      if reread then
        Alcotest.(check string)
          "reader sees committed write" "fresh"
          (read (List.hd rnodes) vs ~addr:0 ~len:5);
      let fo_stale =
        List.length
          (List.filter
             (fun n ->
               (not (reread && n == List.hd rnodes))
               && Ra.Mmu.resident n.Ra.Node.mmu seg 0 <> None)
             rnodes)
      in
      {
        fo_owner = Dsm.Dsm_server.owner_of server seg 0;
        fo_copyset = Dsm.Dsm_server.copyset_of server seg 0;
        fo_invals = dsm server "dsm/invalidations";
        fo_downs = dsm server "dsm/downgrades";
        fo_stale;
        fo_retrans =
          Obs.Registry.count (Ratp.Endpoint.metrics nd.Ra.Node.endpoint)
            "ratp/retrans";
        fo_end_ms = Sim.Time.to_ms_f (Sim.now ());
      })

(* The Li–Hudak end state after a write fault over four readers: the
   writer (node 9) owns the page and every reader was invalidated.  A
   re-read by reader 10 then recalls the write copy, leaving the
   writer and that reader as the copyset. *)
let test_fanout_write_fault_end_state () =
  List.iter
    (fun (reread, owner, copyset, downs) ->
      let r = fanout_scenario ~readers:4 ~reread () in
      check_bool "owner" true (r.fo_owner = owner);
      Alcotest.(check (list int)) "copyset" copyset r.fo_copyset;
      check_int "one invalidation per reader" 4 r.fo_invals;
      check_int "downgrades" downs r.fo_downs;
      check_int "no stale reader" 0 r.fo_stale)
    [ (false, Some 9, [], 0); (true, None, [ 9; 10 ], 1) ]

let test_fanout_same_seed_deterministic () =
  (* identical seeds must replay the identical simulation, including
     the loss schedule and every retransmission, even with the
     concurrent fan-out in play *)
  let a = fanout_scenario ~seed:7 ~drop:0.25 ~readers:3 () in
  let b = fanout_scenario ~seed:7 ~drop:0.25 ~readers:3 () in
  check_bool "same owner" true (a.fo_owner = b.fo_owner);
  Alcotest.(check (list int)) "same copyset" a.fo_copyset b.fo_copyset;
  check_int "same invalidations" a.fo_invals b.fo_invals;
  check_int "same retransmissions" a.fo_retrans b.fo_retrans;
  Alcotest.(check (float 0.0)) "same completion time" a.fo_end_ms b.fo_end_ms

let test_fanout_invalidation_survives_loss () =
  (* frame loss during the invalidation burst: RaTP retransmission
     must still deliver every invalidation before the write is
     granted — no reader may keep a stale frame *)
  let r =
    fanout_scenario ~seed:11 ~drop:0.25 ~readers:4 ~reread:true ()
  in
  check_int "no stale reader survives the write" 0 r.fo_stale;
  check_int "every reader was invalidated" 4 r.fo_invals;
  check_bool "loss forced retransmissions" true (r.fo_retrans > 0)

(* ------------------------------------------------------------------ *)
(* Consistency modes (DESIGN.md §17) *)

(* One data server, [clients] compute clients, one segment of [pages]
   pages in [mode]. *)
let with_mode_cluster ?(seed = 42) ?ratp_config ~mode ~pages ~clients f =
  Sim.exec ~seed (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ?ratp_config () in
      let locate _ = 1 in
      let consistency _ = mode in
      let server = Dsm.Dsm_server.create nd ~consistency () in
      let cs =
        List.init clients (fun i ->
            let n =
              Ra.Node.create ether ~id:(2 + i) ~kind:Ra.Node.Compute
                ?ratp_config ()
            in
            (n, Dsm.Dsm_client.create n ~locate ~consistency ()))
      in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg
        ~size:(pages * Ra.Page.size);
      f ~ether ~server ~seg ~cs)

let put_word n vs ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Ra.Mmu.write n.Ra.Node.mmu vs ~addr b

let get_word n vs ~addr =
  Int64.to_int
    (Bytes.get_int64_le (Ra.Mmu.read n.Ra.Node.mmu vs ~addr ~len:8) 0)

let test_release_defers_and_batches () =
  let pages = 4 in
  with_mode_cluster ~ratp_config:fast_ratp ~mode:Ra.Partition.Release ~pages
    ~clients:2 (fun ~ether:_ ~server ~seg ~cs ->
      let (wn, wc), (rn, _) =
        match cs with [ w; r ] -> (w, r) | _ -> assert false
      in
      let vs = vspace_for seg ~pages in
      (* the reader holds a copy of every page *)
      for p = 0 to pages - 1 do
        ignore (read rn vs ~addr:(p * Ra.Page.size) ~len:1)
      done;
      (* N writes inside the scope: no invalidation traffic at all *)
      for p = 0 to pages - 1 do
        put_word wn vs ~addr:(p * Ra.Page.size) (p + 1)
      done;
      check_int "no invalidations at fault time" 0
        (dsm server "dsm/invalidations");
      check_int "per-copy invalidations deferred" pages
        (dsm server "dsm/mode/deferred_invals");
      check_int "no flush burst yet" 0
        (dsm server "dsm/mode/release_flush_bursts");
      (* the scope ends: ONE batched invalidation RPC to the reader *)
      Dsm.Dsm_client.flush_segment wc seg;
      check_int "one flush burst" 1
        (dsm server "dsm/mode/release_flush_bursts");
      check_int "one invalidation RPC for the whole scope" 1
        (dsm server "dsm/invalidations");
      (* release semantics: after the release, the reader sees every
         write of the scope *)
      for p = 0 to pages - 1 do
        check_bool
          (Printf.sprintf "reader copy of page %d dropped" p)
          true
          (Ra.Mmu.resident rn.Ra.Node.mmu seg p = None)
      done;
      for p = 0 to pages - 1 do
        check_int
          (Printf.sprintf "reader sees write to page %d" p)
          (p + 1)
          (get_word rn vs ~addr:(p * Ra.Page.size))
      done)

(* The headline A/B: the same scoped workload under one-copy pays one
   invalidation RPC per (write fault x copy); release pays one per
   copyset member per scope.  With 4 writes and 1 reader: 4 vs 1. *)
let test_release_cuts_invalidation_rpcs () =
  let measure mode =
    let pages = 4 in
    with_mode_cluster ~ratp_config:fast_ratp ~mode ~pages ~clients:2
      (fun ~ether:_ ~server ~seg ~cs ->
        let (wn, wc), (rn, _) =
          match cs with [ w; r ] -> (w, r) | _ -> assert false
        in
        let vs = vspace_for seg ~pages in
        for p = 0 to pages - 1 do
          ignore (read rn vs ~addr:(p * Ra.Page.size) ~len:1)
        done;
        for p = 0 to pages - 1 do
          put_word wn vs ~addr:(p * Ra.Page.size) (p + 1)
        done;
        Dsm.Dsm_client.flush_segment wc seg;
        dsm server "dsm/invalidations")
  in
  let one_copy = measure Ra.Partition.One_copy in
  let release = measure Ra.Partition.Release in
  check_int "one-copy pays per write fault" 4 one_copy;
  check_int "release pays per scope" 1 release;
  check_bool "at least 2x reduction" true (one_copy >= 2 * release)

let test_release_diffs_preserve_concurrent_writes () =
  (* two scopes write disjoint bytes of the SAME page concurrently;
     diff-based flushing must land both at the home *)
  with_mode_cluster ~ratp_config:fast_ratp ~mode:Ra.Partition.Release ~pages:1
    ~clients:2 (fun ~ether:_ ~server:_ ~seg ~cs ->
      let (n1, c1), (n2, c2) =
        match cs with [ a; b ] -> (a, b) | _ -> assert false
      in
      let vs = vspace_for seg ~pages:1 in
      put_word n1 vs ~addr:0 111;
      put_word n2 vs ~addr:64 222;
      (* c1's flush ends its scope; c2 still holds unflushed writes *)
      Dsm.Dsm_client.flush_segment c1 seg;
      Dsm.Dsm_client.flush_segment c2 seg;
      (* a fresh read (either client) sees both writes *)
      check_int "c2's write survived c1's flush" 222 (get_word n1 vs ~addr:64);
      check_int "c1's write survived c2's flush" 111 (get_word n1 vs ~addr:0);
      check_int "c2 sees c1's write too" 111 (get_word n2 vs ~addr:0);
      check_int "c2 keeps its own write" 222 (get_word n2 vs ~addr:64))

let test_commutative_converges_under_loss () =
  (* both clients blindly increment the SAME word; frame loss and
     reordering force RaTP retransmissions, and the server's
     exactly-once call cache must keep Add deltas from double-applying *)
  let n = 10 in
  with_mode_cluster ~seed:11
    ~mode:(Ra.Partition.Commutative Ra.Partition.Add)
    ~pages:1 ~clients:2
    (fun ~ether ~server ~seg ~cs ->
      let (n1, c1), (n2, c2) =
        match cs with [ a; b ] -> (a, b) | _ -> assert false
      in
      let vs = vspace_for seg ~pages:1 in
      let fault = Net.Ethernet.fault ether in
      Net.Fault.set_default fault
        {
          Net.Fault.pristine with
          drop = 0.2;
          reorder = 0.2;
          reorder_by = Time.ms 5;
        };
      for _ = 1 to n do
        put_word n1 vs ~addr:0 (get_word n1 vs ~addr:0 + 1);
        put_word n2 vs ~addr:0 (get_word n2 vs ~addr:0 + 1)
      done;
      Dsm.Dsm_client.flush_segment c1 seg;
      Dsm.Dsm_client.flush_segment c2 seg;
      Net.Fault.set_default fault Net.Fault.pristine;
      check_bool "loss actually happened" true (Net.Fault.drops fault > 0);
      (* no coherence traffic at all: the home never arbitrated *)
      check_int "no invalidations" 0
        (dsm server "dsm/invalidations");
      check_int "no downgrades" 0 (dsm server "dsm/downgrades");
      check_int "two merges applied" 2 (dsm server "dsm/mode/merges_applied");
      (* convergence: every replica reads the sum of both increment
         streams *)
      Ra.Mmu.drop_segment n1.Ra.Node.mmu seg;
      Ra.Mmu.drop_segment n2.Ra.Node.mmu seg;
      check_int "c1 converged" (2 * n) (get_word n1 vs ~addr:0);
      check_int "c2 converged" (2 * n) (get_word n2 vs ~addr:0))

let test_one_copy_same_seed_identical () =
  (* the control arm must stay byte-identical run to run: same final
     page image, same counter values, same simulated clock *)
  let run () =
    with_mode_cluster ~seed:23 ~ratp_config:fast_ratp
      ~mode:Ra.Partition.One_copy ~pages:2 ~clients:2
      (fun ~ether:_ ~server ~seg ~cs ->
        let (n1, c1), (n2, _) =
          match cs with [ a; b ] -> (a, b) | _ -> assert false
        in
        let vs = vspace_for seg ~pages:2 in
        for i = 0 to 9 do
          put_word n1 vs ~addr:(8 * i) i;
          check_int "coherent" i (get_word n2 vs ~addr:(8 * i))
        done;
        Dsm.Dsm_client.flush_segment c1 seg;
        let image =
          match
            Store.Segment_store.read_page (Dsm.Dsm_server.store server) seg 0
          with
          | Ra.Partition.Data b -> Bytes.to_string b
          | Ra.Partition.Zeroed -> ""
        in
        ( image,
          dsm server "dsm/invalidations",
          dsm server "dsm/downgrades",
          dsm server "dsm/pages_served",
          Sim.Time.to_ms_f (Sim.now ()) ))
  in
  let i1, inv1, down1, served1, t1 = run () in
  let i2, inv2, down2, served2, t2 = run () in
  Alcotest.(check string) "same page image" i1 i2;
  check_int "same invalidations" inv1 inv2;
  check_int "same downgrades" down1 down2;
  check_int "same pages served" served1 served2;
  Alcotest.(check (float 0.0)) "same clock" t1 t2

(* ------------------------------------------------------------------ *)
(* Copysets over-approximate: a locally dropped copy stays listed *)

let test_dropped_copy_redundant_invalidation () =
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages:1 in
      let vs = vspace_for seg ~pages:1 in
      ignore (read cl.n2 vs ~addr:0 ~len:1);
      (* the rollback path drops c2's frames without telling the home *)
      Ra.Mmu.drop_segment cl.n2.Ra.Node.mmu seg;
      check_bool "home still lists c2" true
        (List.mem 3 (Dsm.Dsm_server.copyset_of cl.server seg 0));
      (* c1's write fault pays one redundant invalidation, answered
         clean by c2 *)
      write cl.n1 vs ~addr:0 "x";
      check_int "one redundant invalidation" 1
        (dsm cl.server "dsm/invalidations");
      Alcotest.(check string)
        "c2 re-read sees c1's bytes" "x"
        (read cl.n2 vs ~addr:0 ~len:1))

(* The data segment of an object created through the object manager,
   with the server that stores it. *)
let data_segment (cl : Clouds.Cluster.t) obj =
  let pl = cl.Clouds.Cluster.placement in
  let home = Option.get (Clouds.Placement.home pl obj) in
  let server = Option.get (Clouds.Cluster.server_at cl home) in
  match Store.Directory.lookup (Dsm.Dsm_server.directory server) obj with
  | Some d ->
      (List.find
         (fun e -> String.equal e.Store.Directory.role "data")
         d.Store.Directory.entries)
        .Store.Directory.seg
  | None -> Alcotest.fail "object has no descriptor"

(* A mode set through [Placement.set_mode] alone reaches the home as
   well as the clients: the data server resolves modes through the
   same lookup, so a release write fault defers the reader's
   invalidation instead of sending it. *)
let test_placement_mode_reaches_home () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:2 ~data:1 ~workstations:0 () in
      let cl = sys.Clouds.cluster in
      Clouds.Cluster.register_class cl
        (Clouds.Obj_class.define ~name:"cell"
           [ Clouds.Obj_class.entry "noop" (fun _ _ -> Clouds.Value.Unit) ]);
      let obj =
        Clouds.Object_manager.create_object sys.Clouds.om ~class_name:"cell"
          Clouds.Value.Unit
      in
      let seg = data_segment cl obj in
      Clouds.Placement.set_mode cl.Clouds.Cluster.placement seg
        Ra.Partition.Release;
      let server = cl.Clouds.Cluster.servers.(0) in
      let w = cl.Clouds.Cluster.compute_nodes.(0) in
      let r = cl.Clouds.Cluster.compute_nodes.(1) in
      let vs = vspace_for seg ~pages:1 in
      ignore (read w vs ~addr:0 ~len:1);
      ignore (read r vs ~addr:0 ~len:1);
      let invals0 = dsm server "dsm/invalidations" in
      let deferred0 = dsm server "dsm/mode/deferred_invals" in
      write w vs ~addr:0 "x";
      check_int "the reader's invalidation is deferred" (deferred0 + 1)
        (dsm server "dsm/mode/deferred_invals");
      check_int "no invalidation sent at fault time" invals0
        (dsm server "dsm/invalidations"))

let test_merge_delta_resend_applies_once () =
  (* a Merge_delta re-sent after a client-visible timeout is a FRESH
     call, so the transport's exactly-once cache cannot dedup it; the
     repeated twin-stamp must make the home apply only the difference
     against what it already combined *)
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let nd =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:fast_ratp ()
      in
      let server =
        Dsm.Dsm_server.create nd
          ~consistency:(fun _ -> Ra.Partition.Commutative Ra.Partition.Add)
          ()
      in
      let n2 =
        Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute
          ~ratp_config:fast_ratp ()
      in
      let seg = Ra.Sysname.fresh nd.Ra.Node.names in
      Store.Segment_store.create_segment
        (Dsm.Dsm_server.store server)
        seg ~size:Ra.Page.size;
      let word0 () =
        match
          Store.Segment_store.read_page (Dsm.Dsm_server.store server) seg 0
        with
        | Ra.Partition.Data b -> Int64.to_int (Bytes.get_int64_le b 0)
        | Ra.Partition.Zeroed -> 0
      in
      let send body = P.call n2 ~dst:1 body in
      let delta v =
        let b = Bytes.make Ra.Page.size '\000' in
        Bytes.set_int64_le b 0 (Int64.of_int v);
        b
      in
      (* the first flush lands but (say) its reply is lost *)
      ignore (send (P.Merge_delta [ (seg, 0, 7, delta 5) ]));
      check_int "applied once" 5 (word0 ());
      (* the re-sent flush repeats stamp 7; its delta grew by 3 (new
         writes since, diffed against the same unchanged twin) *)
      ignore (send (P.Merge_delta [ (seg, 0, 7, delta 8) ]));
      check_int "difference applied, not the sum" 8 (word0 ());
      (* the next scope flushes under a fresh stamp: full apply *)
      ignore (send (P.Merge_delta [ (seg, 0, 8, delta 2) ]));
      check_int "fresh stamp applies fully" 10 (word0 ());
      (* a missing segment fails the whole batch instead of silently
         dropping entries while replying success *)
      let ghost = Ra.Sysname.fresh nd.Ra.Node.names in
      (match send (P.Merge_delta [ (ghost, 0, 9, delta 1) ]) with
      | Ok P.Segment_error -> ()
      | _ -> Alcotest.fail "Merge_delta to a missing segment must error");
      match send (P.Put_spans [ (ghost, 0, [ (0, Bytes.make 8 'x') ]) ]) with
      | Ok P.Segment_error -> ()
      | _ -> Alcotest.fail "Put_spans to a missing segment must error")

(* ------------------------------------------------------------------ *)
(* Page-image ownership: stored images, message bodies and Read frames
   share one immutable image; only Write frames and twins are copies. *)

let stored_image server seg page =
  let store = Dsm.Dsm_server.store server in
  match Store.Segment_store.read_page store seg page with
  | Ra.Partition.Data b -> b
  | Ra.Partition.Zeroed -> Alcotest.fail "page should be stored"

(* A reader's frame shares the home's stored image; a writer's frame is
   its own copy, so the writer's stores reach neither the home nor the
   reader before its writeback.  Release mode keeps the reader's copy
   through the writer's fault (the invalidation waits for the flush). *)
let test_read_shares_write_isolates () =
  with_mode_cluster ~ratp_config:fast_ratp ~mode:Ra.Partition.Release ~pages:1
    ~clients:2 (fun ~ether:_ ~server ~seg ~cs ->
      let (an, _), (bn, bc) =
        match cs with [ a; b ] -> (a, b) | _ -> assert false
      in
      let store = Dsm.Dsm_server.store server in
      let image = Bytes.make Ra.Page.size 'o' in
      Store.Segment_store.write_page store seg 0 image;
      let vs = vspace_for seg ~pages:1 in
      Alcotest.(check string) "A reads" "oooo" (read an vs ~addr:0 ~len:4);
      (* probe the sharing: a byte poked into the stored image shows
         through A's frame without another fault *)
      let faults = mmu_faults an in
      Bytes.set image 0 'p';
      Alcotest.(check string) "A's frame is the stored image" "pooo"
        (read an vs ~addr:0 ~len:4);
      Bytes.set image 0 'o';
      check_int "no refault" faults (mmu_faults an);
      write bn vs ~addr:0 "WW";
      Alcotest.(check string) "B sees its write" "WWoo"
        (read bn vs ~addr:0 ~len:4);
      check_bool "home image untouched" true
        (Bytes.equal (stored_image server seg 0) (Bytes.make Ra.Page.size 'o'));
      Alcotest.(check string) "A keeps the old bytes" "oooo"
        (read an vs ~addr:0 ~len:4);
      Dsm.Dsm_client.flush_segment bc seg;
      Alcotest.(check string) "home has B's write after writeback" "WWoo"
        (Bytes.sub_string (stored_image server seg 0) 0 4);
      Alcotest.(check string) "A refetches B's write" "WWoo"
        (read an vs ~addr:0 ~len:4))

(* The two server paths that change a stored page in place (release
   diffs, commutative merges) must copy first: a page already handed
   out by Get_page keeps its bytes. *)
let test_server_copies_before_write () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let nd =
        Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data ~ratp_config:fast_ratp ()
      in
      let modes = Ra.Sysname.Table.create 2 in
      let consistency seg =
        Option.value (Ra.Sysname.Table.find_opt modes seg)
          ~default:Ra.Partition.One_copy
      in
      let server = Dsm.Dsm_server.create nd ~consistency () in
      let n2 =
        Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute
          ~ratp_config:fast_ratp ()
      in
      let store = Dsm.Dsm_server.store server in
      let seg_with mode =
        let seg = Ra.Sysname.fresh nd.Ra.Node.names in
        Store.Segment_store.create_segment store seg ~size:Ra.Page.size;
        Ra.Sysname.Table.replace modes seg mode;
        Store.Segment_store.write_page store seg 0
          (Bytes.make Ra.Page.size '\001');
        seg
      in
      let fetched seg =
        match
          P.call n2 ~dst:1
            (P.Get_page { seg; page = 0; mode = Ra.Partition.Read })
        with
        | Ok (P.Got_page (Ra.Partition.Data b)) -> b
        | _ -> Alcotest.fail "Get_page should return the stored page"
      in
      let unchanged = Bytes.make Ra.Page.size '\001' in
      let rel = seg_with Ra.Partition.Release in
      let kept = fetched rel in
      let diffs = [ (rel, 0, [ (0, Bytes.of_string "xy") ]) ] in
      (match P.call n2 ~dst:1 (P.Put_spans diffs) with
      | Ok P.Batch_ok -> ()
      | _ -> Alcotest.fail "Put_spans should apply");
      Alcotest.(check string) "diffs applied" "xy"
        (Bytes.sub_string (stored_image server rel 0) 0 2);
      check_bool "fetched page unchanged by Put_spans" true
        (Bytes.equal kept unchanged);
      let com = seg_with (Ra.Partition.Commutative Ra.Partition.Add) in
      let kept = fetched com in
      let delta = Bytes.make Ra.Page.size '\000' in
      Bytes.set_int64_le delta 0 5L;
      (match P.call n2 ~dst:1 (P.Merge_delta [ (com, 0, 1, delta) ]) with
      | Ok (P.Merged _) -> ()
      | _ -> Alcotest.fail "Merge_delta should apply");
      check_bool "delta merged" true
        (Bytes.get_int64_le (stored_image server com 0) 0
        = Int64.add (Bytes.get_int64_le unchanged 0) 5L);
      check_bool "fetched page unchanged by Merge_delta" true
        (Bytes.equal kept unchanged))

(* Allocation gate for the read-fault path: words allocated directly
   in the major heap (where every 8 KB image goes) per Read fault of a
   stored page.  Sharing the stored image costs no page: 0 such words
   per fault, against 2052 when the store copied on read and the MMU
   copied again into a fresh frame (two 1025-word pages).  The bound
   is 512, half a page.  A word count, so it does not depend on the
   host. *)
let test_read_fault_allocates_no_page () =
  let pages = 200 in
  with_cluster (fun cl ->
      let seg = new_seg cl ~pages in
      let store = Dsm.Dsm_server.store cl.server in
      for p = 0 to pages - 1 do
        Store.Segment_store.write_page store seg p
          (Bytes.make Ra.Page.size (Char.chr (p land 0xff)))
      done;
      let vs = vspace_for seg ~pages in
      let direct_major () =
        let _minor, promoted, major = Gc.counters () in
        major -. promoted
      in
      let before = direct_major () in
      for p = 0 to pages - 1 do
        ignore
          (Ra.Mmu.read cl.n1.Ra.Node.mmu vs ~addr:(p * Ra.Page.size) ~len:1)
      done;
      let per_fault = (direct_major () -. before) /. float_of_int pages in
      check_int "one fault per page" pages (mmu_faults cl.n1);
      if per_fault >= 512.0 then
        Alcotest.failf "%.0f major-heap words per read fault (bound 512)"
          per_fault)

let () =
  Alcotest.run "dsm"
    [
      ( "coherence",
        [
          Alcotest.test_case "shared read" `Quick test_shared_read;
          Alcotest.test_case "write then remote read" `Quick
            test_write_then_remote_read;
          Alcotest.test_case "write-write invalidation" `Quick
            test_write_write_invalidation;
          Alcotest.test_case "read copies invalidated on write" `Quick
            test_read_copies_invalidated_on_write;
          Alcotest.test_case "flush and drop" `Quick test_flush_and_drop;
          Alcotest.test_case "missing segment" `Quick
            test_missing_segment_error;
          Alcotest.test_case "flush to deleted segment keeps frame dirty"
            `Quick test_flush_deleted_segment_keeps_dirty;
          Alcotest.test_case "segment rpc lifecycle" `Quick
            test_segment_rpc_lifecycle;
          Alcotest.test_case "owner crash falls back to store" `Quick
            test_owner_crash_recovers_stored_state;
          Alcotest.test_case "batched flush" `Quick test_batched_flush;
          Alcotest.test_case "request byte accounting" `Quick
            test_request_bytes_accounting;
          Alcotest.test_case "write contention converges" `Quick
            test_write_contention_converges;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "write-fault end state" `Quick
            test_fanout_write_fault_end_state;
          Alcotest.test_case "same seed deterministic" `Quick
            test_fanout_same_seed_deterministic;
          Alcotest.test_case "invalidation survives loss" `Quick
            test_fanout_invalidation_survives_loss;
        ] );
      qsuite "coherence-props" [ prop_one_copy_semantics ];
      ( "modes",
        [
          Alcotest.test_case "release defers and batches" `Quick
            test_release_defers_and_batches;
          Alcotest.test_case "release cuts invalidation rpcs" `Quick
            test_release_cuts_invalidation_rpcs;
          Alcotest.test_case "release diffs preserve concurrent writes" `Quick
            test_release_diffs_preserve_concurrent_writes;
          Alcotest.test_case "commutative converges under loss" `Quick
            test_commutative_converges_under_loss;
          Alcotest.test_case "one-copy same seed identical" `Quick
            test_one_copy_same_seed_identical;
          Alcotest.test_case "merge delta resend applies once" `Quick
            test_merge_delta_resend_applies_once;
          Alcotest.test_case "placement mode reaches the home" `Quick
            test_placement_mode_reaches_home;
        ] );
      ( "copyset",
        [
          Alcotest.test_case "dropped copy costs one redundant invalidation"
            `Quick test_dropped_copy_redundant_invalidation;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "read shares, write isolates" `Quick
            test_read_shares_write_isolates;
          Alcotest.test_case "server copies before write" `Quick
            test_server_copies_before_write;
          Alcotest.test_case "read fault allocates no page" `Quick
            test_read_fault_allocates_no_page;
        ] );
      ( "locks",
        [
          Alcotest.test_case "shared and exclusive" `Quick
            test_locks_shared_and_exclusive;
          Alcotest.test_case "fifo blocks later readers" `Quick
            test_locks_fifo_blocks_later_readers;
          Alcotest.test_case "upgrade" `Quick test_locks_upgrade;
          Alcotest.test_case "cancellation" `Quick test_locks_cancellation;
          Alcotest.test_case "release in table order" `Quick
            test_locks_release_in_table_order;
        ] );
      ( "commit",
        [
          Alcotest.test_case "lock service and abort release" `Quick
            test_lock_service_and_abort_release;
          Alcotest.test_case "2pc commit applies" `Quick
            test_two_phase_commit_applies;
          Alcotest.test_case "2pc abort discards" `Quick
            test_two_phase_abort_discards;
          Alcotest.test_case "prepare unknown segment votes no" `Quick
            test_prepare_unknown_segment_votes_no;
          Alcotest.test_case "presumed abort" `Quick
            test_presumed_abort_times_out;
          Alcotest.test_case "server crash recovery" `Quick
            test_server_crash_recovery;
          Alcotest.test_case "crashed server flushes nothing" `Quick
            test_crashed_server_flushes_nothing;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "recovery waits out pending" `Quick
            test_recovery_waits_out_pending;
          Alcotest.test_case "timer asks the oracle" `Quick
            test_timer_asks_oracle;
          Alcotest.test_case "resolved commit is mirrored" `Quick
            test_resolved_commit_mirrored;
          Alcotest.test_case "unknown at recovery logs abort" `Quick
            test_unknown_at_recovery_logs_abort;
          Alcotest.test_case "prepared entry settles once" `Quick
            test_prepared_settles_once;
        ] );
      ( "participant",
        [
          Alcotest.test_case "in doubt survives recovery" `Quick
            test_in_doubt_survives_recovery;
          Alcotest.test_case "commit decision ends it" `Quick
            (ends_in_doubt ~committed:true (by_decision ~commit:true));
          Alcotest.test_case "abort decision ends it" `Quick
            (ends_in_doubt ~committed:false (by_decision ~commit:false));
          Alcotest.test_case "presumed abort ends it" `Quick
            (ends_in_doubt ~committed:false by_timer);
          Alcotest.test_case "resolver commit after recovery ends it" `Quick
            (ends_in_doubt ~committed:true by_resolver_after_recovery);
        ] );
    ]
