(* Tests for data-server stable storage: disk timing, segment store,
   write-ahead log and directory. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let seg_gen = Ra.Sysname.make_gen ~node:0

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_timing () =
  let elapsed =
    Sim.exec (fun () ->
        let cfg = { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 } in
        let d = Store.Disk.create ~config:cfg "d" in
        let t0 = Sim.now () in
        Store.Disk.write d ~bytes:8192;
        Time.diff (Sim.now ()) t0)
  in
  check_int "seek + transfer" (Time.ms 12) elapsed

let test_disk_serializes () =
  let elapsed =
    Sim.exec (fun () ->
        let cfg = { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 } in
        let d = Store.Disk.create ~config:cfg "d" in
        let done_ = Semaphore.create 0 in
        for _ = 1 to 2 do
          ignore
            (Sim.spawn "io" (fun () ->
                 Store.Disk.write d ~bytes:8192;
                 Semaphore.release done_))
        done;
        Semaphore.acquire done_;
        Semaphore.acquire done_;
        Sim.now ())
  in
  check_int "two writes serialize" (Time.ms 24) elapsed;
  ()

let test_disk_append_tail () =
  Sim.exec (fun () ->
      let cfg =
        { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 }
      in
      let d = Store.Disk.create ~config:cfg "d" in
      let time f =
        let t0 = Sim.now () in
        f ();
        Time.diff (Sim.now ()) t0
      in
      (* cold head: the first append pays a full seek to the log zone *)
      check_int "first append seeks" (Time.ms 12)
        (time (fun () -> Store.Disk.append d ~bytes:8192));
      (* head parked at the tail: the next append pays rotation only *)
      check_int "tail append skips the seek" (Time.ms 6)
        (time (fun () -> Store.Disk.append d ~bytes:8192));
      (* any read/write moves the head away again *)
      check_int "write seeks" (Time.ms 12)
        (time (fun () -> Store.Disk.write d ~bytes:8192));
      check_int "append after write seeks" (Time.ms 12)
        (time (fun () -> Store.Disk.append d ~bytes:8192));
      check_int "ops counted" 4
        (Obs.Registry.count (Store.Disk.metrics d) "disk/ops"))

(* ------------------------------------------------------------------ *)
(* Segment store *)

let test_segment_lifecycle () =
  let s = Store.Segment_store.create () in
  let seg = Ra.Sysname.fresh seg_gen in
  check_bool "absent" false (Store.Segment_store.exists s seg);
  Store.Segment_store.create_segment s seg ~size:(2 * Ra.Page.size);
  check_bool "present" true (Store.Segment_store.exists s seg);
  check_int "size" (2 * Ra.Page.size) (Store.Segment_store.size s seg);
  check_bool "duplicate create rejected" true
    (try
       Store.Segment_store.create_segment s seg ~size:1;
       false
     with Invalid_argument _ -> true);
  Store.Segment_store.delete_segment s seg;
  check_bool "deleted" false (Store.Segment_store.exists s seg)

let test_segment_pages () =
  let s = Store.Segment_store.create () in
  let seg = Ra.Sysname.fresh seg_gen in
  Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
  (match Store.Segment_store.read_page s seg 0 with
  | Ra.Partition.Zeroed -> ()
  | Ra.Partition.Data _ -> Alcotest.fail "untouched page should be zeroed");
  let page = Bytes.make Ra.Page.size 'p' in
  Store.Segment_store.write_page s seg 0 page;
  (match Store.Segment_store.read_page s seg 0 with
  | Ra.Partition.Data d ->
      check_bool "roundtrip" true (Bytes.equal d page);
      (* stored images are immutable and shared: the store keeps the
         image it was given and hands that same image out *)
      check_bool "shared image" true (d == page)
  | Ra.Partition.Zeroed -> Alcotest.fail "wrote page");
  let missing = Ra.Sysname.fresh seg_gen in
  check_bool "missing segment raises" true
    (try
       ignore (Store.Segment_store.read_page s missing 0);
       false
     with Ra.Partition.No_segment _ -> true)

let test_local_partition () =
  Sim.exec (fun () ->
      let s = Store.Segment_store.create () in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      let p = Store.Segment_store.local_partition s in
      (match p.Ra.Partition.fetch ~seg ~page:0 ~mode:Ra.Partition.Read with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "expected zeroed");
      p.Ra.Partition.writeback ~seg ~page:0 [ (10, Bytes.of_string "w") ];
      match p.Ra.Partition.fetch ~seg ~page:0 ~mode:Ra.Partition.Read with
      | Ra.Partition.Data d ->
          check_bool "span laid over zeros" true
            (Bytes.get d 10 = 'w' && Bytes.get d 0 = '\000'
            && Bytes.length d = Ra.Page.size)
      | Ra.Partition.Zeroed -> Alcotest.fail "expected data")

(* ------------------------------------------------------------------ *)
(* WAL *)

let page_of_char c = Bytes.make Ra.Page.size c

let test_wal_recover_committed () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create () in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 1); writes = [ (seg, 0, [ (0, page_of_char 'a') ]) ]; undo = [] });
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      (* an undecided transaction: not applied, handed back to the
         caller (the data server's resolver settles it) *)
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 2); writes = [ (seg, 0, [ (0, page_of_char 'b') ]) ]; undo = [] });
      let applied = ref [] in
      let in_doubt = Store.Wal.recover wal s ~applied in
      Alcotest.(check (list (pair int int))) "applied" [ (1, 1) ] !applied;
      (match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Data d -> check_bool "committed applied" true (Bytes.get d 0 = 'a')
      | Ra.Partition.Zeroed -> Alcotest.fail "not applied");
      Alcotest.(check (list (pair int int)))
        "undecided returned" [ (1, 2) ]
        (List.map (fun p -> p.Store.Wal.txn) in_doubt))

let test_wal_costs_disk_time () =
  let elapsed =
    Sim.exec (fun () ->
        let cfg = { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 } in
        let disk = Store.Disk.create ~config:cfg "d" in
        let wal = Store.Wal.create disk in
        let t0 = Sim.now () in
        Store.Wal.append wal (Store.Wal.Committed (1, 1));
        Time.diff (Sim.now ()) t0)
  in
  check_bool "durable append costs time" true (elapsed >= Time.ms 10)

let test_wal_truncate () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      Store.Wal.truncate wal;
      check_int "empty" 0 (List.length (Store.Wal.records wal)))

let test_wal_recover_twice_applies_once () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create () in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 1); writes = [ (seg, 0, [ (0, page_of_char 'a') ]) ]; undo = [] });
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      let applied = ref [] in
      let (_ : Store.Wal.prep list) =
        Store.Wal.recover wal s ~applied
      in
      Alcotest.(check (list (pair int int))) "first replay" [ (1, 1) ] !applied;
      (* the page now carries the commit's LSN, so a second replay of
         the same log must not apply (or count) anything *)
      let applied = ref [] in
      let (_ : Store.Wal.prep list) =
        Store.Wal.recover wal s ~applied
      in
      Alcotest.(check (list (pair int int))) "second replay idle" [] !applied)

let stored_page s seg =
  match Store.Segment_store.read_page s seg 0 with
  | Ra.Partition.Data d -> Bytes.to_string d
  | Ra.Partition.Zeroed -> ""

(* Span records over a non-zero base: a second recovery leaves every
   page exactly as the first left it. *)
let test_wal_span_redo_twice () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create () in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Segment_store.write_page s seg 0 (page_of_char '.');
      let span off str = (off, Bytes.of_string str) in
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 1); writes = [ (seg, 0, [ span 0 "abcd"; span 100 "xy" ]) ]; undo = [] });
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (1, 2); writes = [ (seg, 0, [ span 2 "ZZ" ]) ]; undo = [] });
      Store.Wal.append wal (Store.Wal.Committed (1, 2));
      let recover () =
        let applied = ref [] in
        ignore (Store.Wal.recover wal s ~applied);
        stored_page s seg
      in
      let first = recover () in
      check_bool "spans laid over the base" true
        (String.sub first 0 6 = "abZZ.." && String.sub first 100 3 = "xy."
        && String.length first = Ra.Page.size);
      Alcotest.(check string) "second recovery, same page" first (recover ()))

(* Spans overwrite part of a page, so redo order matters: two
   committed records on one page land in commit-record order, even
   when their prepares were logged the other way round. *)
let test_wal_span_redo_order () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create () in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      let prep txn off str =
        Store.Wal.append wal
          (Store.Wal.Prepared
             { txn; writes = [ (seg, 0, [ (off, Bytes.of_string str) ]) ]; undo = [] })
      in
      prep (1, 2) 2 "BBBB";
      prep (1, 1) 0 "AAAA";
      Store.Wal.append wal (Store.Wal.Committed (1, 1));
      Store.Wal.append wal (Store.Wal.Committed (1, 2));
      let applied = ref [] in
      ignore (Store.Wal.recover wal s ~applied);
      Alcotest.(check string) "later commit wins the overlap" "AABBBB"
        (String.sub (stored_page s seg) 0 6))

let test_wal_keep_in_doubt () =
  Sim.exec (fun () ->
      let disk = Store.Disk.create "d" in
      let wal = Store.Wal.create disk in
      let s = Store.Segment_store.create () in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      Store.Wal.append wal
        (Store.Wal.Prepared
           { txn = (2, 7); writes = [ (seg, 0, [ (0, page_of_char 'k') ]) ]; undo = [] });
      let applied = ref [] in
      let in_doubt = Store.Wal.recover wal s ~applied in
      (* undecided: the participant keeps its promise — nothing
         applied, nothing aborted, and the prepare comes back for
         re-installation *)
      Alcotest.(check (list (pair int int))) "nothing applied" [] !applied;
      (match in_doubt with
      | [ p ] ->
          check_bool "prepare survives" true (p.Store.Wal.txn = (2, 7))
      | l -> Alcotest.failf "expected one in-doubt prep, got %d" (List.length l));
      (match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Zeroed -> ()
      | Ra.Partition.Data _ -> Alcotest.fail "in-doubt write leaked");
      check_bool "no abort marker" true
        (not
           (List.exists
              (function Store.Wal.Aborted (2, 7) -> true | _ -> false)
              (Store.Wal.records wal))))

let test_wal_group_commit_batches () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let cfg =
        { Store.Disk.seek = Time.ms 10; transfer_per_8k = Time.ms 2; rot = Time.ms 4 }
      in
      let disk = Store.Disk.create ~config:cfg "d" in
      let wal =
        Store.Wal.create
          ~group_commit:{ Store.Wal.window = Time.ms 2; max_batch = 64 }
          ~spawn:(fun name f -> ignore (Sim.Engine.spawn eng name f))
          disk
      in
      let done_ = Semaphore.create 0 in
      for i = 1 to 4 do
        ignore
          (Sim.spawn "committer" (fun () ->
               Store.Wal.append wal (Store.Wal.Committed (1, i));
               Semaphore.release done_))
      done;
      for _ = 1 to 4 do
        Semaphore.acquire done_
      done;
      (* four concurrent appends ride one group flush: a single disk
         positioning delay, all four records durable *)
      check_int "one flush" 1
        (Obs.Registry.count (Store.Wal.metrics wal) "wal/flushes");
      check_int "one disk op" 1
        (Obs.Registry.count (Store.Disk.metrics disk) "disk/ops");
      check_int "all durable" 4 (Store.Wal.flushed_lsn wal))

let test_wal_undo_crash_window () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let disk = Store.Disk.create "d" in
      let wal =
        Store.Wal.create
          ~group_commit:{ Store.Wal.window = Time.ms 5; max_batch = 64 }
          ~spawn:(fun name f -> ignore (Sim.Engine.spawn eng name f))
          disk
      in
      let s = Store.Segment_store.create () in
      let seg = Ra.Sysname.fresh seg_gen in
      Store.Segment_store.create_segment s seg ~size:Ra.Page.size;
      (* the before-image is sparse: logged trimmed, restored padded *)
      let before = Bytes.make Ra.Page.size '\000' in
      Bytes.blit_string "old" 0 before 0 3;
      Store.Segment_store.write_page s seg 0 before;
      Store.Wal.append wal
        (Store.Wal.Prepared
           {
             txn = (1, 1);
             writes = [ (seg, 0, [ (0, page_of_char 'n') ]) ];
             undo = [ (seg, 0, Some (Store.Wal.trim_image before)) ];
           });
      (* pipelined commit: record in the buffer, page applied, locks
         released — then the crash beats the flush *)
      let lsn = Store.Wal.enqueue wal (Store.Wal.Committed (1, 1)) in
      Store.Segment_store.write_page s seg 0 (page_of_char 'n') ~lsn;
      let applied = ref [] in
      let in_doubt = Store.Wal.recover wal s ~applied in
      (* the commit record was volatile, so the transaction is
         undecided again: the crash-window apply must be undone from
         the before-image, and the prepare handed back to be settled *)
      Alcotest.(check (list (pair int int))) "nothing redone" [] !applied;
      (match Store.Segment_store.read_page s seg 0 with
      | Ra.Partition.Data d ->
          check_int "full page restored" Ra.Page.size (Bytes.length d);
          check_bool "before-image back" true
            (Bytes.sub_string d 0 3 = "old" && Bytes.get d 3 = '\000')
      | Ra.Partition.Zeroed -> Alcotest.fail "page lost");
      Alcotest.(check (list (pair int int)))
        "undecided returned" [ (1, 1) ]
        (List.map (fun p -> p.Store.Wal.txn) in_doubt))

let test_wal_trim_image () =
  let sparse = Bytes.make Ra.Page.size '\000' in
  Bytes.blit_string "payload" 0 sparse 0 7;
  check_int "sparse page trims to its payload" 7
    (Bytes.length (Store.Wal.trim_image sparse));
  check_int "all-zero page trims to nothing" 0
    (Bytes.length (Store.Wal.trim_image (Bytes.make Ra.Page.size '\000')));
  let full = Bytes.make Ra.Page.size 'x' in
  check_int "dense page keeps every byte" Ra.Page.size
    (Bytes.length (Store.Wal.trim_image full));
  (* the word-at-a-time scan must cut exactly where a byte-at-a-time
     scan from the end does: at every trailing-zero length of a page,
     whatever byte of a word the last non-zero one is, and for images
     shorter than a word or not a whole number of words *)
  let reference b =
    let n = ref (Bytes.length b) in
    while !n > 0 && Bytes.get b (!n - 1) = '\000' do
      decr n
    done;
    Bytes.sub b 0 !n
  in
  let agree what b =
    let trimmed = Store.Wal.trim_image b in
    if not (Bytes.equal trimmed (reference b)) then
      Alcotest.failf "%s: trimmed to %d bytes, byte scan %d" what
        (Bytes.length trimmed) (Bytes.length (reference b))
  in
  for zeros = 0 to Ra.Page.size do
    let b = Bytes.init Ra.Page.size (fun i -> Char.chr (1 + (i mod 255))) in
    Bytes.fill b (Ra.Page.size - zeros) zeros '\000';
    agree (Printf.sprintf "%d trailing zeros" zeros) b
  done;
  for len = 0 to 19 do
    for last = -1 to len - 1 do
      (* a zero-padded image whose last non-zero byte is at [last] *)
      let b = Bytes.make len '\000' in
      if last >= 0 then Bytes.set b last '\001';
      if last > 0 then Bytes.set b 0 '\255';
      agree (Printf.sprintf "%d-byte image, last non-zero at %d" len last) b
    done
  done

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory () =
  let d = Store.Directory.create () in
  let obj = Ra.Sysname.fresh seg_gen in
  let code = Ra.Sysname.fresh seg_gen in
  let desc =
    {
      Store.Directory.class_name = "rectangle";
      home = 1;
      entries = [ { Store.Directory.role = "code"; seg = code; size = 8192 } ];
    }
  in
  check_bool "empty" true (Store.Directory.lookup d obj = None);
  Store.Directory.register d obj desc;
  (match Store.Directory.lookup d obj with
  | Some found ->
      Alcotest.(check string) "class" "rectangle" found.Store.Directory.class_name
  | None -> Alcotest.fail "registered but not found");
  check_int "listed" 1 (List.length (Store.Directory.objects d));
  check_bool "bytes positive" true (Store.Directory.descriptor_bytes desc > 64);
  Store.Directory.remove d obj;
  check_bool "removed" true (Store.Directory.lookup d obj = None)

let () =
  Alcotest.run "store"
    [
      ( "disk",
        [
          Alcotest.test_case "timing" `Quick test_disk_timing;
          Alcotest.test_case "serializes" `Quick test_disk_serializes;
          Alcotest.test_case "append tracks the log tail" `Quick
            test_disk_append_tail;
        ] );
      ( "segments",
        [
          Alcotest.test_case "lifecycle" `Quick test_segment_lifecycle;
          Alcotest.test_case "pages" `Quick test_segment_pages;
          Alcotest.test_case "local partition" `Quick test_local_partition;
        ] );
      ( "wal",
        [
          Alcotest.test_case "recover committed only" `Quick
            test_wal_recover_committed;
          Alcotest.test_case "append costs disk time" `Quick
            test_wal_costs_disk_time;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "replay is idempotent" `Quick
            test_wal_recover_twice_applies_once;
          Alcotest.test_case "span redo twice, same pages" `Quick
            test_wal_span_redo_twice;
          Alcotest.test_case "span redo in commit order" `Quick
            test_wal_span_redo_order;
          Alcotest.test_case "keep leaves in doubt" `Quick
            test_wal_keep_in_doubt;
          Alcotest.test_case "group commit batches" `Quick
            test_wal_group_commit_batches;
          Alcotest.test_case "crash-window undo" `Quick
            test_wal_undo_crash_window;
          Alcotest.test_case "before-image trim" `Quick test_wal_trim_image;
        ] );
      ("directory", [ Alcotest.test_case "crud" `Quick test_directory ]);
    ]
