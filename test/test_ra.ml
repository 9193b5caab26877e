(* Tests for the Ra kernel model: sysnames, virtual spaces, CPU
   scheduling costs, and the MMU fault paths. *)

open Sim
open Ra

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mmu_count mmu path = Obs.Registry.count (Mmu.metrics mmu) path
let switches cpu = Obs.Registry.count (Cpu.metrics cpu) "cpu/switches"

(* ------------------------------------------------------------------ *)
(* Sysname *)

let test_sysname_uniqueness () =
  let g = Sysname.make_gen ~node:3 in
  let a = Sysname.fresh g and b = Sysname.fresh g in
  check_bool "distinct" false (Sysname.equal a b);
  let g7 = Sysname.make_gen ~node:7 in
  let c = Sysname.fresh g7 in
  check_bool "cross-node distinct" false (Sysname.equal a c);
  check_bool "well-known stable" true
    (Sysname.equal (Sysname.well_known 4) (Sysname.well_known 4))

let test_sysname_table () =
  let g = Sysname.make_gen ~node:1 in
  let tbl = Sysname.Table.create 4 in
  let a = Sysname.fresh g in
  Sysname.Table.replace tbl a 42;
  Alcotest.(check (option int)) "found" (Some 42) (Sysname.Table.find_opt tbl a);
  let b = Sysname.fresh g in
  Alcotest.(check (option int)) "absent" None (Sysname.Table.find_opt tbl b)

let prop_sysname_all_distinct =
  QCheck.Test.make ~name:"generated sysnames pairwise distinct" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let g = Sysname.make_gen ~node:9 in
      let names = List.init n (fun _ -> Sysname.fresh g) in
      let tbl = Sysname.Table.create n in
      List.for_all
        (fun s ->
          if Sysname.Table.mem tbl s then false
          else begin
            Sysname.Table.replace tbl s ();
            true
          end)
        names)

(* The parser and printer before they stopped using Scanf and Printf:
   the reference the hand-written ones must agree with. *)
let scanf_of_string s =
  match Scanf.sscanf s "SYS-%d.%d%!" (fun node local -> (node, local)) with
  | v -> Some v
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None

let parsed s =
  Option.map (fun (n : Sysname.t) -> (n.node, n.local)) (Sysname.of_string s)

let parse_case s =
  Alcotest.(check (option (pair int int))) (Printf.sprintf "%S" s)
    (scanf_of_string s) (parsed s)

let test_sysname_parse_table () =
  List.iter parse_case
    [
      "SYS-1.2"; "SYS--1.5"; "SYS-+1.2"; "SYS-1_0.2"; "SYS-007.08";
      "SYS-1.-2"; "SYS-1.+2"; "SYS-1__.2_"; "SYS-1.2x"; "SYS- 1.2";
      "SYS-1. 2"; "SYS-1.2 "; "SYS-1."; "SYS-.2"; "SYS-1"; "SYS-"; "SYS";
      "sys-1.2"; ""; "SYS-_1.2"; "SYS--_1.2"; "SYS-+-1.2"; "SYS-1..2";
      "SYS-1.2.3"; "SYS-0x10.2"; "xSYS-1.2";
      "SYS-4611686018427387903.0"; "SYS-4611686018427387904.0";
      "SYS--4611686018427387904.0"; "SYS--4611686018427387905.0";
      "SYS-1.99999999999999999999"; "SYS-46116860184273879030.1";
    ]

let prop_sysname_parse_agrees =
  QCheck.Test.make ~name:"parser agrees with Scanf on noisy strings"
    ~count:2000
    QCheck.(
      make
        Gen.(
          map2
            (fun prefix tail -> if prefix then "SYS-" ^ tail else tail)
            bool
            (string_size ~gen:(oneofl (String.to_seq "0123456789.-+_ xS" |> List.of_seq))
               (int_range 0 12))))
    (fun s -> scanf_of_string s = parsed s)

(* A page table must walk its bindings in the order a polymorphic
   table keyed by the same pairs does: its hash is [Hashtbl.hash] of
   the pair, computed by hand. *)
let prop_page_table_order =
  let edge =
    [ 0; 1; -1; 2; max_int; min_int; 1 lsl 31; (1 lsl 31) - 1; -(1 lsl 31);
      -(1 lsl 31) - 1; 1 lsl 32; 1 lsl 61; -(1 lsl 61); 123456789012345 ]
  in
  let int_gen =
    QCheck.Gen.(
      frequency
        [ (3, int_range (-5) 500); (2, int); (1, oneofl edge) ])
  in
  QCheck.Test.make ~name:"page table walks as Hashtbl did" ~count:300
    QCheck.(make Gen.(list_size (int_range 1 60) (triple int_gen int_gen int_gen)))
    (fun keys ->
      let poly = Hashtbl.create 4 and typed = Sysname.Page_table.create 4 in
      List.iteri
        (fun i (node, local, page) ->
          let seg =
            Option.get
              (Sysname.of_string (Printf.sprintf "SYS-%d.%d" node local))
          in
          Hashtbl.replace poly (seg, page) i;
          Sysname.Page_table.replace typed (seg, page) i;
          if i mod 5 = 4 then begin
            Hashtbl.remove poly (seg, page);
            Sysname.Page_table.remove typed (seg, page)
          end)
        keys;
      let walk fold tbl = fold (fun (s, p) v acc -> (s, p, v) :: acc) tbl [] in
      walk Hashtbl.fold poly = walk Sysname.Page_table.fold typed)

(* The same for a table keyed by sysname: [Sysname.hash] is
   [Hashtbl.hash] of the record, computed by hand.  The large case
   grows the table to 32768 buckets, so the walk depends on fifteen
   bits of each hash. *)
let sysname_walks_agree pairs =
  let poly = Hashtbl.create 4 and typed = Sysname.Table.create 4 in
  List.iteri
    (fun i (node, local) ->
      let seg =
        Option.get (Sysname.of_string (Printf.sprintf "SYS-%d.%d" node local))
      in
      Hashtbl.replace poly seg i;
      Sysname.Table.replace typed seg i;
      if i mod 5 = 4 then begin
        Hashtbl.remove poly seg;
        Sysname.Table.remove typed seg
      end)
    pairs;
  let walk fold tbl = fold (fun s v acc -> (s, v) :: acc) tbl [] in
  walk Hashtbl.fold poly = walk Sysname.Table.fold typed

let prop_sysname_table_order =
  let int_gen =
    QCheck.Gen.(
      frequency
        [ (3, int_range (-5) 500); (2, int); (1, oneofl [ max_int; min_int; -1 ]) ])
  in
  QCheck.Test.make ~name:"sysname table walks as Hashtbl did" ~count:300
    QCheck.(make Gen.(list_size (int_range 1 60) (pair int_gen int_gen)))
    sysname_walks_agree

let test_sysname_table_order_large () =
  let rng = Random.State.make [| 7 |] in
  let pairs =
    List.init 30_000 (fun i ->
        if i mod 3 = 0 then (Random.State.bits rng - (1 lsl 29), i)
        else (i mod 97, Random.State.bits rng))
  in
  check_bool "30k sysnames walk as Hashtbl did" true (sysname_walks_agree pairs)

let prop_sysname_round_trip =
  QCheck.Test.make ~name:"to_string round-trips" ~count:500
    QCheck.(pair (int_range (-1000) 1_000_000) (int_range 0 300))
    (fun (node, k) ->
      let g = Sysname.make_gen ~node in
      let names =
        Sysname.well_known k :: Sysname.well_known (max_int - k)
        :: List.init (k mod 7 + 1) (fun _ -> Sysname.fresh g)
      in
      List.for_all
        (fun (n : Sysname.t) ->
          let s = Sysname.to_string n in
          s = Printf.sprintf "SYS-%d.%d" n.node n.local
          && Option.map (fun (m : Sysname.t) -> Sysname.equal m n)
               (Sysname.of_string s)
             = Some true)
        names)

(* ------------------------------------------------------------------ *)
(* Page *)

let test_page_math () =
  check_int "size" 8192 Page.size;
  check_int "index 0" 0 (Page.index_of 100);
  check_int "index 1" 1 (Page.index_of 8192);
  check_int "count empty" 1 (Page.count_for 0);
  check_int "count exact" 1 (Page.count_for 8192);
  check_int "count spill" 2 (Page.count_for 8193)

(* ------------------------------------------------------------------ *)
(* Virtual space *)

let seg_gen = Sysname.make_gen ~node:0

let test_vspace_map_translate () =
  let vs = Virtual_space.create () in
  let s1 = Sysname.fresh seg_gen and s2 = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:0 ~len:(2 * Page.size) ~prot:Virtual_space.Read_only s1;
  (* a hole, then s2 *)
  Virtual_space.map vs ~base:(4 * Page.size) ~len:Page.size
    ~prot:Virtual_space.Read_write s2;
  (match Virtual_space.translate vs 100 with
  | Some (m, off) ->
      check_bool "s1" true (Sysname.equal m.Virtual_space.seg s1);
      check_int "offset" 100 off
  | None -> Alcotest.fail "unmapped");
  (match Virtual_space.translate vs ((4 * Page.size) + 7) with
  | Some (m, off) ->
      check_bool "s2" true (Sysname.equal m.Virtual_space.seg s2);
      check_int "offset in s2" 7 off
  | None -> Alcotest.fail "unmapped");
  check_bool "hole" true (Virtual_space.translate vs (3 * Page.size) = None);
  check_int "segments" 2 (List.length (Virtual_space.segments vs))

let test_vspace_seg_off () =
  let vs = Virtual_space.create () in
  let s = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:Page.size ~len:Page.size ~seg_off:(2 * Page.size)
    ~prot:Virtual_space.Read_write s;
  match Virtual_space.translate vs (Page.size + 5) with
  | Some (_, off) -> check_int "window offset" ((2 * Page.size) + 5) off
  | None -> Alcotest.fail "unmapped"

let test_vspace_overlap_rejected () =
  let vs = Virtual_space.create () in
  let s = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:0 ~len:(2 * Page.size) ~prot:Virtual_space.Read_write s;
  let raised =
    try
      Virtual_space.map vs ~base:Page.size ~len:Page.size
        ~prot:Virtual_space.Read_write s;
      false
    with Invalid_argument _ -> true
  in
  check_bool "overlap rejected" true raised;
  let misaligned =
    try
      Virtual_space.map vs ~base:(3 * Page.size) ~len:100
        ~prot:Virtual_space.Read_write s;
      false
    with Invalid_argument _ -> true
  in
  check_bool "misaligned rejected" true misaligned

let test_vspace_unmap () =
  let vs = Virtual_space.create () in
  let s = Sysname.fresh seg_gen in
  Virtual_space.map vs ~base:0 ~len:Page.size ~prot:Virtual_space.Read_write s;
  Virtual_space.unmap vs ~base:0;
  check_bool "gone" true (Virtual_space.translate vs 0 = None);
  check_bool "unmap missing raises" true
    (try
       Virtual_space.unmap vs ~base:0;
       false
     with Not_found -> true)

let prop_vspace_translate_consistent =
  QCheck.Test.make ~name:"translate agrees with mapping arithmetic" ~count:100
    QCheck.(pair (int_range 0 20) (int_range 0 200_000))
    (fun (npages_minus, probe) ->
      let vs = Virtual_space.create () in
      let s = Sysname.fresh seg_gen in
      let npages = 1 + npages_minus in
      Virtual_space.map vs ~base:Page.size ~len:(npages * Page.size)
        ~prot:Virtual_space.Read_write s;
      match Virtual_space.translate vs probe with
      | Some (_, off) ->
          probe >= Page.size
          && probe < Page.size + (npages * Page.size)
          && off = probe - Page.size
      | None -> probe < Page.size || probe >= Page.size + (npages * Page.size))

(* ------------------------------------------------------------------ *)
(* CPU *)

let test_cpu_context_switch_accounting () =
  let switches, elapsed =
    Sim.exec (fun () ->
        let cpu = Cpu.create () in
        (* entity 1 runs twice in a row: one switch total (cold start);
           then entity 2: second switch *)
        Cpu.consume cpu ~key:1 (Time.us 100);
        Cpu.consume cpu ~key:1 (Time.us 100);
        Cpu.consume cpu ~key:2 (Time.us 100);
        (switches cpu, Sim.now ()))
  in
  check_int "two switches" 2 switches;
  check_int "time = 3 work + 2 cs" (Time.us (300 + 280)) elapsed

let test_cpu_serializes () =
  let switched, elapsed =
    Sim.exec (fun () ->
        let cpu = Cpu.create () in
        let done_ = Semaphore.create 0 in
        for i = 1 to 3 do
          ignore
            (Sim.spawn (Printf.sprintf "w%d" i) (fun () ->
                 Cpu.consume cpu ~key:i (Time.ms 1);
                 Semaphore.release done_))
        done;
        for _ = 1 to 3 do
          Semaphore.acquire done_
        done;
        (switches cpu, Sim.now ()))
  in
  (* each job is a new entity: three switches *)
  check_int "three switches" 3 switched;
  check_int "three 1ms jobs serialize"
    (Time.ms 3 + (3 * Params.context_switch))
    elapsed

(* ------------------------------------------------------------------ *)
(* MMU *)

(* A fake partition over an in-memory page table, counting fetches. *)
let fake_partition () =
  let pages : (Sysname.t * int, bytes) Hashtbl.t = Hashtbl.create 16 in
  let fetches = ref 0 in
  let partition =
    {
      Partition.fetch =
        (fun ~seg ~page ~mode:_ ->
          incr fetches;
          match Hashtbl.find_opt pages (seg, page) with
          | Some b -> Partition.Data (Bytes.copy b)
          | None -> Partition.Zeroed);
      writeback =
        (fun ~seg ~page spans ->
          let img =
            match Hashtbl.find_opt pages (seg, page) with
            | Some b -> Bytes.copy b
            | None -> Page.zero ()
          in
          List.iter (fun (off, b) -> Bytes.blit b 0 img off (Bytes.length b)) spans;
          Hashtbl.replace pages (seg, page) img);
    }
  in
  (partition, pages, fetches)

let with_mmu f =
  Sim.exec (fun () ->
      let cpu = Cpu.create () in
      let mmu = Mmu.create ~cpu () in
      let partition, pages, fetches = fake_partition () in
      Mmu.set_resolver mmu (fun _ -> partition);
      let vs = Virtual_space.create () in
      let seg = Sysname.fresh seg_gen in
      Virtual_space.map vs ~base:0 ~len:(4 * Page.size)
        ~prot:Virtual_space.Read_write seg;
      (* absorb the cold-start context switch so fault timing is pure *)
      Cpu.consume cpu ~key:(Sim.self ()) 0;
      f mmu vs seg pages fetches)

let test_mmu_zero_fill_fault_cost () =
  let elapsed =
    with_mmu (fun mmu vs _seg _pages _fetches ->
        let t0 = Sim.now () in
        let b = Mmu.read mmu vs ~addr:0 ~len:8 in
        check_bool "zeroed" true (Bytes.for_all (fun c -> c = '\000') b);
        Time.diff (Sim.now ()) t0)
  in
  (* paper: 1.5 ms for a zero-filled 8K page *)
  check_int "fault_trap + zero_fill" (Time.us 1500) elapsed

let test_mmu_data_fault_cost () =
  let elapsed =
    with_mmu (fun mmu vs seg pages _fetches ->
        let page = Bytes.make Page.size 'x' in
        Hashtbl.replace pages (seg, 0) page;
        let t0 = Sim.now () in
        let b = Mmu.read mmu vs ~addr:0 ~len:4 in
        Alcotest.(check string) "data" "xxxx" (Bytes.to_string b);
        Time.diff (Sim.now ()) t0)
  in
  (* paper: 0.629 ms for a non-zero-filled 8K page *)
  check_int "fault_trap + copy" (Time.us 629) elapsed

let test_mmu_resident_access_free () =
  let second =
    with_mmu (fun mmu vs _seg _pages _fetches ->
        ignore (Mmu.read mmu vs ~addr:0 ~len:8);
        let t0 = Sim.now () in
        ignore (Mmu.read mmu vs ~addr:16 ~len:8);
        Time.diff (Sim.now ()) t0)
  in
  check_int "no cost once resident" 0 second

let test_mmu_read_your_writes () =
  with_mmu (fun mmu vs _seg _pages _fetches ->
      Mmu.write mmu vs ~addr:100 (Bytes.of_string "hello");
      let b = Mmu.read mmu vs ~addr:100 ~len:5 in
      Alcotest.(check string) "readback" "hello" (Bytes.to_string b))

let test_mmu_cross_page_access () =
  with_mmu (fun mmu vs _seg _pages fetches ->
      let data = Bytes.make 100 'z' in
      Mmu.write mmu vs ~addr:(Page.size - 50) data;
      check_int "two pages faulted" 2 !fetches;
      let b = Mmu.read mmu vs ~addr:(Page.size - 50) ~len:100 in
      Alcotest.(check string) "spans boundary" (Bytes.to_string data)
        (Bytes.to_string b))

let test_mmu_write_marks_dirty_and_upgrade () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      ignore (Mmu.read mmu vs ~addr:0 ~len:1);
      check_bool "read mode" true (Mmu.resident mmu seg 0 = Some Partition.Read);
      check_int "no dirty yet" 0 (List.length (Mmu.dirty_pages mmu seg));
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "a");
      check_bool "write mode" true (Mmu.resident mmu seg 0 = Some Partition.Write);
      check_int "one upgrade" 1 (mmu_count mmu "mmu/upgrades");
      check_int "dirty" 1 (List.length (Mmu.dirty_pages mmu seg)))

let test_mmu_segv_and_protection () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      let segv =
        try
          ignore (Mmu.read mmu vs ~addr:(10 * Page.size) ~len:1);
          false
        with Mmu.Segv _ -> true
      in
      check_bool "segv on hole" true segv;
      let ro = Virtual_space.create () in
      Virtual_space.map ro ~base:0 ~len:Page.size ~prot:Virtual_space.Read_only
        seg;
      let prot =
        try
          Mmu.write mmu ro ~addr:0 (Bytes.of_string "x");
          false
        with Mmu.Write_protect _ -> true
      in
      check_bool "write protect" true prot)

let test_mmu_invalidate_returns_dirty () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "dirty!");
      (match Mmu.invalidate mmu seg 0 with
      | Some data ->
          Alcotest.(check string) "dirty data" "dirty!"
            (Bytes.to_string (Bytes.sub data 0 6))
      | None -> Alcotest.fail "expected dirty data");
      check_bool "frame gone" true (Mmu.resident mmu seg 0 = None);
      (* clean frame invalidation returns nothing *)
      ignore (Mmu.read mmu vs ~addr:0 ~len:1);
      check_bool "clean invalidate" true (Mmu.invalidate mmu seg 0 = None))

let test_mmu_downgrade () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "w");
      (match Mmu.downgrade mmu seg 0 with
      | Some _ -> ()
      | None -> Alcotest.fail "dirty page should surface");
      check_bool "now read mode" true
        (Mmu.resident mmu seg 0 = Some Partition.Read);
      check_int "no longer dirty" 0 (List.length (Mmu.dirty_pages mmu seg)))

let test_mmu_concurrent_faults_single_fetch () =
  with_mmu (fun mmu vs _seg _pages fetches ->
      let done_ = Semaphore.create 0 in
      for _ = 1 to 3 do
        ignore
          (Sim.spawn "reader" (fun () ->
               ignore (Mmu.read mmu vs ~addr:0 ~len:1);
               Semaphore.release done_))
      done;
      for _ = 1 to 3 do
        Semaphore.acquire done_
      done;
      check_int "one partition fetch" 1 !fetches)

let test_mmu_clear_drops_everything () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "gone");
      Mmu.clear mmu;
      check_bool "not resident" true (Mmu.resident mmu seg 0 = None);
      check_int "dirty lost (crash semantics)" 0
        (List.length (Mmu.dirty_pages mmu seg)))

let with_small_mmu ?(wrap = Fun.id) ~max_frames f =
  Sim.exec (fun () ->
      let cpu = Cpu.create () in
      let mmu = Mmu.create ~max_frames ~cpu () in
      let partition, pages, fetches = fake_partition () in
      let partition = wrap partition in
      Mmu.set_resolver mmu (fun _ -> partition);
      let vs = Virtual_space.create () in
      let seg = Sysname.fresh seg_gen in
      Virtual_space.map vs ~base:0 ~len:(8 * Page.size)
        ~prot:Virtual_space.Read_write seg;
      Cpu.consume cpu ~key:(Sim.self ()) 0;
      f mmu vs seg pages fetches)

let test_mmu_eviction_lru () =
  with_small_mmu ~max_frames:3 (fun mmu vs seg _pages fetches ->
      (* fill the three frames: pages 0,1,2 *)
      for p = 0 to 2 do
        ignore (Mmu.read mmu vs ~addr:(p * Page.size) ~len:1)
      done;
      check_int "three resident" 3 (Mmu.resident_frames mmu);
      (* reuse page 0 so page 1 becomes the LRU, then fault page 3 *)
      ignore (Mmu.read mmu vs ~addr:0 ~len:1);
      ignore (Mmu.read mmu vs ~addr:(3 * Page.size) ~len:1);
      check_int "still three resident" 3 (Mmu.resident_frames mmu);
      check_int "one eviction" 1 (mmu_count mmu "mmu/evictions");
      check_bool "page 1 (lru) evicted" true (Mmu.resident mmu seg 1 = None);
      check_bool "page 0 kept" true (Mmu.resident mmu seg 0 <> None);
      (* the evicted page refetches on demand *)
      let before = !fetches in
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      check_int "refetched" (before + 1) !fetches)

let test_mmu_eviction_writes_back_dirty () =
  with_small_mmu ~max_frames:2 (fun mmu vs seg pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "persist-me");
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      ignore (Mmu.read mmu vs ~addr:(2 * Page.size) ~len:1);
      (* page 0 was dirty and LRU: its bytes must be in the partition *)
      check_bool "dirty page written back" true
        (match Hashtbl.find_opt pages (seg, 0) with
        | Some b -> Bytes.to_string (Bytes.sub b 0 10) = "persist-me"
        | None -> false);
      (* and reading it again returns the written data *)
      Alcotest.(check string)
        "roundtrip after eviction" "persist-me"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:10)))

(* Drive a node well past its frame budget with a mix of clean and
   dirty frames: every dirty victim must reach the partition, clean
   victims must not trigger writebacks, and the eviction counter must
   account for every displaced frame. *)
let test_mmu_eviction_mixed_clean_dirty () =
  with_small_mmu ~max_frames:4 (fun mmu vs seg pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "dirty-0");
      Mmu.write mmu vs ~addr:Page.size (Bytes.of_string "dirty-1");
      ignore (Mmu.read mmu vs ~addr:(2 * Page.size) ~len:1);
      ignore (Mmu.read mmu vs ~addr:(3 * Page.size) ~len:1);
      check_int "at budget, no evictions yet" 0 (mmu_count mmu "mmu/evictions");
      (* pages 4..7 displace 0..3 in LRU order *)
      for p = 4 to 7 do
        ignore (Mmu.read mmu vs ~addr:(p * Page.size) ~len:1)
      done;
      check_int "every displaced frame counted" 4
        (mmu_count mmu "mmu/evictions");
      check_int "still at the frame budget" 4 (Mmu.resident_frames mmu);
      for p = 0 to 3 do
        check_bool
          (Printf.sprintf "page %d evicted" p)
          true
          (Mmu.resident mmu seg p = None)
      done;
      (* dirty victims were written back, not dropped *)
      let stored p want =
        match Hashtbl.find_opt pages (seg, p) with
        | Some b -> Bytes.to_string (Bytes.sub b 0 (String.length want)) = want
        | None -> false
      in
      check_bool "dirty page 0 written back" true (stored 0 "dirty-0");
      check_bool "dirty page 1 written back" true (stored 1 "dirty-1");
      (* clean victims never touched the partition *)
      check_bool "clean page 2 not written back" true
        (Hashtbl.find_opt pages (seg, 2) = None);
      check_bool "clean page 3 not written back" true
        (Hashtbl.find_opt pages (seg, 3) = None);
      (* the written-back data survives a refetch *)
      Alcotest.(check string)
        "roundtrip after eviction" "dirty-0"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:7)))

(* A dirty victim ships only the bytes written to it, laid over the
   page its partition already holds. *)
let test_mmu_eviction_ships_spans () =
  let shipped = ref [] in
  let wrap p =
    {
      p with
      Partition.writeback =
        (fun ~seg ~page spans ->
          shipped := List.map (fun (o, b) -> (o, Bytes.to_string b)) spans;
          p.Partition.writeback ~seg ~page spans);
    }
  in
  with_small_mmu ~wrap ~max_frames:1 (fun mmu vs seg pages _fetches ->
      Hashtbl.replace pages (seg, 0) (Bytes.make Page.size 'p');
      Mmu.write mmu vs ~addr:100 (Bytes.of_string "abc");
      let frame = Mmu.read mmu vs ~addr:0 ~len:Page.size in
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      check_bool "page 0 evicted" true (Mmu.resident mmu seg 0 = None);
      Alcotest.(check (list (pair int string)))
        "only the written span" [ (100, "abc") ] !shipped;
      check_bool "stored page equals the frame" true
        (Hashtbl.find_opt pages (seg, 0) = Some frame))

(* A writeback that raises leaves the victim resident and dirty: the
   written bytes are still there to send again. *)
let test_mmu_eviction_failed_writeback_keeps_frame () =
  let wrap p =
    {
      p with
      Partition.writeback =
        (fun ~seg ~page:_ _ -> raise (Partition.No_segment seg));
    }
  in
  with_small_mmu ~wrap ~max_frames:1 (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "keep-me");
      (match Mmu.read mmu vs ~addr:Page.size ~len:1 with
      | _ -> Alcotest.fail "the failed writeback must raise"
      | exception Partition.No_segment _ -> ());
      check_bool "page 0 still resident" true
        (Mmu.resident mmu seg 0 = Some Partition.Write);
      check_bool "page 0 still dirty" true (Mmu.is_dirty mmu seg 0);
      check_int "nothing evicted" 0 (mmu_count mmu "mmu/evictions");
      Alcotest.(check string)
        "bytes intact" "keep-me"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:7)))

(* A write that lands while the victim's writeback is in flight keeps
   the frame resident and dirty, even on a whole-page span list that
   the write leaves as it was. *)
let test_mmu_eviction_write_during_writeback () =
  let started = Sim.Ivar.create () and written = Sim.Ivar.create () in
  let wrap p =
    {
      p with
      Partition.writeback =
        (fun ~seg ~page spans ->
          Sim.Ivar.fill started ();
          Sim.Ivar.read written;
          p.Partition.writeback ~seg ~page spans);
    }
  in
  with_small_mmu ~wrap ~max_frames:2 (fun mmu vs seg pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.make Page.size 'a');
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      ignore
        (Sim.spawn "late-writer" (fun () ->
             Sim.Ivar.read started;
             Mmu.write mmu vs ~addr:0 (Bytes.of_string "late");
             Sim.Ivar.fill written ()));
      (* page 0 is the LRU victim; the late write makes page 1 the
         next one *)
      ignore (Mmu.read mmu vs ~addr:(2 * Page.size) ~len:1);
      check_bool "page 1 evicted instead" true (Mmu.resident mmu seg 1 = None);
      check_bool "page 0 still resident" true (Mmu.resident mmu seg 0 <> None);
      check_bool "page 0 still dirty" true (Mmu.is_dirty mmu seg 0);
      check_bool "the earlier bytes reached the partition" true
        (match Hashtbl.find_opt pages (seg, 0) with
        | Some b -> Bytes.get b 0 = 'a'
        | None -> false);
      Alcotest.(check string)
        "the late write survives" "late"
        (Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:4)))

(* ------------------------------------------------------------------ *)
(* Dirty spans: the bytes a 2PC prepare ships *)

let spans_of mmu seg =
  List.map
    (fun (page, spans) ->
      (page, List.map (fun (off, b) -> (off, Bytes.to_string b)) spans))
    (Mmu.dirty_spans mmu seg)

let check_spans = Alcotest.(check (list (pair int (list (pair int string)))))

let test_spans_coalesce () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      let w addr s = Mmu.write mmu vs ~addr (Bytes.of_string s) in
      w 10 "abc";
      w 13 "de" (* touches [10,13): joins it *);
      w 100 "x";
      w 12 "ZZZZ" (* overlaps [10,15) and extends it *);
      w 50 "q";
      check_spans "sorted, merged on touch and overlap"
        [ (0, [ (10, "abZZZZ"); (50, "q"); (100, "x") ]) ]
        (spans_of mmu seg);
      (* one write bridging two ranges absorbs both *)
      w 49 (String.make 53 'y');
      check_spans "bridge absorbs [50] and [100]"
        [ (0, [ (10, "abZZZZ"); (49, String.make 53 'y') ]) ]
        (spans_of mmu seg);
      (* a write across a page boundary leaves a span on each page *)
      w (Page.size - 2) "1234";
      check_spans "split at the page boundary"
        [
          (0, [ (10, "abZZZZ"); (49, String.make 53 'y'); (Page.size - 2, "12") ]);
          (1, [ (0, "34") ]);
        ]
        (spans_of mmu seg))

(* Every path that makes a frame clean forgets its spans: the next
   write on the same page ships only itself. *)
let test_spans_cleared_when_clean () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      let w addr s = Mmu.write mmu vs ~addr (Bytes.of_string s) in
      let only_second what =
        w 300 "second";
        check_spans what [ (0, [ (300, "second") ]) ] (spans_of mmu seg)
      in
      w 0 "first";
      Mmu.mark_clean mmu seg 0;
      check_spans "mark_clean" [] (spans_of mmu seg);
      only_second "after mark_clean";
      ignore (Mmu.downgrade mmu seg 0);
      check_spans "downgrade" [] (spans_of mmu seg);
      only_second "after downgrade";
      Mmu.merge_refresh mmu seg 0 (Mmu.read mmu vs ~addr:0 ~len:Page.size);
      check_spans "merge_refresh" [] (spans_of mmu seg);
      only_second "after merge_refresh";
      ignore (Mmu.invalidate mmu seg 0);
      check_spans "invalidate" [] (spans_of mmu seg);
      only_second "after invalidate";
      Mmu.drop_segment mmu seg;
      check_spans "drop_segment" [] (spans_of mmu seg);
      only_second "after drop_segment")

let test_spans_evicted_frame_forgotten () =
  with_small_mmu ~max_frames:1 (fun mmu vs seg _pages _fetches ->
      Mmu.write mmu vs ~addr:0 (Bytes.of_string "first");
      ignore (Mmu.read mmu vs ~addr:Page.size ~len:1);
      check_bool "page 0 evicted" true (Mmu.resident mmu seg 0 = None);
      Mmu.write mmu vs ~addr:300 (Bytes.of_string "second");
      check_spans "only the write after the eviction"
        [ (0, [ (300, "second") ]) ]
        (spans_of mmu seg))

(* Spans cost 8 bytes each plus their bytes; once that reaches a page
   the page ships whole. *)
let test_spans_whole_page_fallback () =
  with_mmu (fun mmu vs seg _pages _fetches ->
      (* one span of size - 9 bytes costs size - 1: still a span *)
      Mmu.write mmu vs ~addr:0 (Bytes.make (Page.size - 9) 'a');
      check_spans "just under a page stays a span"
        [ (0, [ (0, String.make (Page.size - 9) 'a') ]) ]
        (spans_of mmu seg);
      (* one more byte, 8 bytes apart: two spans now cost size + 8 *)
      Mmu.write mmu vs ~addr:(Page.size - 1) (Bytes.of_string "b");
      let whole = Bytes.to_string (Mmu.read mmu vs ~addr:0 ~len:Page.size) in
      check_spans "at a page it ships whole" [ (0, [ (0, whole) ]) ]
        (spans_of mmu seg);
      (* scattered single bytes reach the same cost by count *)
      for i = 0 to 1023 do
        Mmu.write mmu vs ~addr:(Page.size + (4 * i)) (Bytes.of_string "c")
      done;
      let whole = Bytes.to_string (Mmu.read mmu vs ~addr:Page.size ~len:Page.size) in
      match spans_of mmu seg with
      | [ _; (1, spans) ] -> check_spans "many small spans" [ (1, [ (0, whole) ]) ] [ (1, spans) ]
      | _ -> Alcotest.fail "expected two dirty pages")

(* For any write sequence, laying [dirty_spans] over the image the
   pages were fetched as reproduces the frames byte for byte, and the
   spans are sorted, disjoint and never adjacent. *)
let prop_spans_reproduce_frame =
  let write_gen =
    QCheck.Gen.(
      triple (int_range 0 ((2 * Page.size) - 1)) (int_range 1 300) printable)
  in
  QCheck.Test.make ~name:"spans rebuild the frame" ~count:200
    QCheck.(
      make
        ~print:
          Print.(
            list (fun (a, n, c) -> Printf.sprintf "%d+%d %C" a n c))
        Gen.(list_size (int_range 1 40) write_gen))
    (fun writes ->
      with_mmu (fun mmu vs seg pages _fetches ->
          (* a non-zero base on page 0, a zero-fill page 1 *)
          let base0 = Bytes.init Page.size (fun i -> Char.chr (i mod 251)) in
          Hashtbl.replace pages (seg, 0) base0;
          List.iter
            (fun (addr, n, c) ->
              let n = min n ((2 * Page.size) - addr) in
              Mmu.write mmu vs ~addr (Bytes.make n c))
            writes;
          List.for_all
            (fun (page, spans) ->
              let img =
                if page = 0 then Bytes.copy base0 else Bytes.make Page.size '\000'
              in
              List.iter (fun (off, b) -> Bytes.blit b 0 img off (Bytes.length b)) spans;
              let rec well_formed = function
                | (o1, b1) :: ((o2, _) :: _ as rest) ->
                    o1 + Bytes.length b1 < o2 && well_formed rest
                | [ _ ] | [] -> true
              in
              well_formed spans
              && Bytes.equal img
                   (Mmu.read mmu vs ~addr:(page * Page.size) ~len:Page.size))
            (Mmu.dirty_spans mmu seg)))

(* ------------------------------------------------------------------ *)
(* Node and isiba *)

let test_node_crash_kills_processes () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let ether = Net.Ethernet.create eng () in
      let node = Node.create ether ~id:5 ~kind:Node.Compute () in
      let ran = ref false in
      let _pid =
        Node.spawn node "worker" (fun () ->
            Sim.sleep (Time.ms 100);
            ran := true)
      in
      Sim.sleep (Time.ms 1);
      Node.crash node;
      Sim.sleep (Time.ms 200);
      check_bool "worker died with node" false !ran;
      check_bool "node marked dead" false node.Node.alive)

let test_isiba_compute_charges_cpu () =
  let elapsed =
    Sim.exec (fun () ->
        let eng = Sim.engine () in
        let ether = Net.Ethernet.create eng () in
        let node = Node.create ether ~id:6 ~kind:Node.Compute () in
        let t0 = Sim.now () in
        Isiba.compute node (Time.ms 2);
        Time.diff (Sim.now ()) t0)
  in
  (* 2ms work + cold context switch *)
  check_int "work plus switch" (Time.ms 2 + Time.us 140) elapsed

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ra"
    [
      ( "sysname",
        [
          Alcotest.test_case "uniqueness" `Quick test_sysname_uniqueness;
          Alcotest.test_case "table" `Quick test_sysname_table;
          Alcotest.test_case "parse as Scanf did" `Quick
            test_sysname_parse_table;
          Alcotest.test_case "table walks as Hashtbl did" `Quick
            test_sysname_table_order_large;
        ] );
      qsuite "sysname-props"
        [
          prop_sysname_all_distinct;
          prop_sysname_parse_agrees;
          prop_sysname_round_trip;
          prop_page_table_order;
          prop_sysname_table_order;
        ];
      ("page", [ Alcotest.test_case "math" `Quick test_page_math ]);
      ( "vspace",
        [
          Alcotest.test_case "map and translate" `Quick
            test_vspace_map_translate;
          Alcotest.test_case "segment offset windows" `Quick
            test_vspace_seg_off;
          Alcotest.test_case "overlap and alignment" `Quick
            test_vspace_overlap_rejected;
          Alcotest.test_case "unmap" `Quick test_vspace_unmap;
        ] );
      qsuite "vspace-props" [ prop_vspace_translate_consistent ];
      ( "cpu",
        [
          Alcotest.test_case "context switch accounting" `Quick
            test_cpu_context_switch_accounting;
          Alcotest.test_case "serializes" `Quick test_cpu_serializes;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "zero-fill fault cost (paper 1.5ms)" `Quick
            test_mmu_zero_fill_fault_cost;
          Alcotest.test_case "data fault cost (paper 0.629ms)" `Quick
            test_mmu_data_fault_cost;
          Alcotest.test_case "resident access free" `Quick
            test_mmu_resident_access_free;
          Alcotest.test_case "read your writes" `Quick
            test_mmu_read_your_writes;
          Alcotest.test_case "cross-page access" `Quick
            test_mmu_cross_page_access;
          Alcotest.test_case "dirty and upgrade" `Quick
            test_mmu_write_marks_dirty_and_upgrade;
          Alcotest.test_case "segv and protection" `Quick
            test_mmu_segv_and_protection;
          Alcotest.test_case "invalidate returns dirty" `Quick
            test_mmu_invalidate_returns_dirty;
          Alcotest.test_case "downgrade" `Quick test_mmu_downgrade;
          Alcotest.test_case "concurrent faults fetch once" `Quick
            test_mmu_concurrent_faults_single_fetch;
          Alcotest.test_case "clear drops everything" `Quick
            test_mmu_clear_drops_everything;
          Alcotest.test_case "lru eviction" `Quick test_mmu_eviction_lru;
          Alcotest.test_case "eviction writes back dirty" `Quick
            test_mmu_eviction_writes_back_dirty;
          Alcotest.test_case "eviction mixed clean/dirty" `Quick
            test_mmu_eviction_mixed_clean_dirty;
          Alcotest.test_case "eviction ships spans" `Quick
            test_mmu_eviction_ships_spans;
          Alcotest.test_case "failed writeback keeps frame" `Quick
            test_mmu_eviction_failed_writeback_keeps_frame;
          Alcotest.test_case "write during writeback keeps frame" `Quick
            test_mmu_eviction_write_during_writeback;
        ] );
      ( "spans",
        [
          Alcotest.test_case "coalesce on insert" `Quick test_spans_coalesce;
          Alcotest.test_case "cleared when clean" `Quick
            test_spans_cleared_when_clean;
          Alcotest.test_case "cleared by eviction" `Quick
            test_spans_evicted_frame_forgotten;
          Alcotest.test_case "whole-page fallback" `Quick
            test_spans_whole_page_fallback;
        ] );
      qsuite "spans-props" [ prop_spans_reproduce_frame ];
      ( "node",
        [
          Alcotest.test_case "crash kills processes" `Quick
            test_node_crash_kills_processes;
          Alcotest.test_case "isiba compute charges cpu" `Quick
            test_isiba_compute_charges_cpu;
        ] );
    ]
