(* DSM fast-path A/B: batched writeback and fault-ahead prefetch
   (DESIGN.md §11).

   Scans read a 16-page segment page by page — sequentially or in a
   fixed pseudo-random order — under different prefetch windows and
   count the fetch RPCs that actually cross the wire.  Flushes dirty
   a growing number of pages and time the single Put_batch that
   writes them back.

   The cluster here runs a faster interconnect than the calibrated
   1988-vintage default (100 Mbit/s, light per-frame host costs):
   batching pays off most when per-RPC overhead, not raw wire time,
   dominates a transfer, which is the regime modern hardware — and
   the ROADMAP's "fast as the hardware allows" goal — lives in.  The
   calibrated experiments (T1–T3) keep the paper's network. *)

type scan_point = {
  window : int;
  sequential : bool;
  fetch_rpcs : int;
  prefetched : int;  (* pages shipped speculatively by the server *)
  scan_ms : float;
}

type flush_point = {
  pages : int;
  batched_ms : float;
  batched_rpcs : int;
}

type result = { scans : scan_point list; flushes : flush_point list }

let seg_pages = 16

(* A fixed permutation of 0..15: "random" access that is identical on
   every run, so the experiment stays deterministic by construction. *)
let shuffled = [ 5; 0; 11; 3; 14; 7; 1; 12; 9; 15; 2; 8; 6; 13; 4; 10 ]

let ether_config =
  {
    Net.Ethernet.default_config with
    bandwidth_bps = 100_000_000;
    send_cost_per_frame = Sim.Time.us 80;
    recv_cost_per_frame = Sim.Time.us 80;
    cost_per_byte_ns = 5;
  }

let page_image p = Bytes.make Ra.Page.size (Char.chr (97 + (p mod 26)))

type setup = {
  client : Dsm.Dsm_client.t;
  server : Dsm.Dsm_server.t;
  seg : Ra.Sysname.t;
  vs : Ra.Virtual_space.t;
  mmu : Ra.Mmu.t;
}

(* One data server holding a [seg_pages]-page segment with known
   contents, one compute server mapping it. *)
let setup ~prefetch_window =
  let ether = Net.Ethernet.create (Sim.engine ()) ~config:ether_config () in
  let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data () in
  let server = Dsm.Dsm_server.create nd () in
  let nc = Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute () in
  let client =
    Dsm.Dsm_client.create nc ~locate:(fun _ -> 1) ~prefetch_window ()
  in
  let seg = Ra.Sysname.fresh nd.Ra.Node.names in
  let store = Dsm.Dsm_server.store server in
  Store.Segment_store.create_segment store seg
    ~size:(seg_pages * Ra.Page.size);
  for p = 0 to seg_pages - 1 do
    Store.Segment_store.write_page store seg p (page_image p)
  done;
  let vs = Ra.Virtual_space.create () in
  Ra.Virtual_space.map vs ~base:0 ~len:(seg_pages * Ra.Page.size)
    ~prot:Ra.Virtual_space.Read_write seg;
  { client; server; seg; vs; mmu = nc.Ra.Node.mmu }

let measure_scan ~window ~sequential =
  Sim.exec (fun () ->
      let s = setup ~prefetch_window:window in
      let order =
        if sequential then List.init seg_pages Fun.id else shuffled
      in
      let t0 = Sim.now () in
      List.iter
        (fun p ->
          let got =
            Ra.Mmu.read s.mmu s.vs ~addr:(p * Ra.Page.size) ~len:8
          in
          let want = Char.chr (97 + (p mod 26)) in
          Bytes.iter
            (fun c ->
              if c <> want then
                failwith
                  (Printf.sprintf "page_batching: page %d read %c, want %c" p
                     c want))
            got)
        order;
      {
        window;
        sequential;
        fetch_rpcs = Dsm.Dsm_client.remote_fetches s.client;
        prefetched = Dsm.Dsm_server.pages_prefetched s.server;
        scan_ms = Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0);
      })

let flush_point pages =
  Sim.exec (fun () ->
      let s = setup ~prefetch_window:0 in
      for p = 0 to pages - 1 do
        Ra.Mmu.write s.mmu s.vs ~addr:(p * Ra.Page.size)
          (Bytes.make 64 'w')
      done;
      let rpcs0 = Dsm.Dsm_client.put_rpcs s.client in
      let t0 = Sim.now () in
      Dsm.Dsm_client.flush_segment s.client s.seg;
      {
        pages;
        batched_ms = Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0);
        batched_rpcs = Dsm.Dsm_client.put_rpcs s.client - rpcs0;
      })

let run ?(windows = [ 0; 2; 8 ]) ?(flush_sizes = [ 1; 4; 16 ]) () =
  let scans =
    List.concat_map
      (fun window ->
        List.map
          (fun sequential -> measure_scan ~window ~sequential)
          [ true; false ])
      windows
  in
  { scans; flushes = List.map flush_point flush_sizes }

let report r =
  let scan_rows =
    List.map
      (fun p ->
        {
          Report.label =
            Printf.sprintf "%s scan, window %d"
              (if p.sequential then "sequential" else "random")
              p.window;
          paper = "-";
          measured =
            Printf.sprintf "%d fetch RPCs, %s" p.fetch_rpcs
              (Report.ms p.scan_ms);
          note = Printf.sprintf "%d pages prefetched" p.prefetched;
        })
      r.scans
  in
  let flush_rows =
    List.map
      (fun p ->
        {
          Report.label = Printf.sprintf "flush %d dirty pages" p.pages;
          paper = "-";
          measured = Report.ms p.batched_ms;
          note = Printf.sprintf "%d RPCs" p.batched_rpcs;
        })
      r.flushes
  in
  Report.table
    ~title:
      "Page batching: fault-ahead prefetch and batched writeback (16-page \
       segment)"
    (scan_rows @ flush_rows)


let to_json (r : result) =
  let open Obs.Export in
  let scan s =
    Obj
      [
        ("window", int s.window); ("sequential", Bool s.sequential);
        ("fetch_rpcs", int s.fetch_rpcs);
        ("prefetched", int s.prefetched); ("scan_ms", Num s.scan_ms);
      ]
  in
  let flush f =
    Obj
      [
        ("pages", int f.pages); ("batched_ms", Num f.batched_ms);
        ("batched_rpcs", int f.batched_rpcs);
      ]
  in
  Obj
    [
      ("scans", Arr (List.map scan r.scans));
      ("flushes", Arr (List.map flush r.flushes));
    ]
