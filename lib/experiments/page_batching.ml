(* DSM fast path: batched writeback (DESIGN.md §11).  Dirty a growing
   number of pages of a 16-page segment, 64 bytes each, and time the
   single Put_spans that writes those bytes back.

   The cluster here runs a faster interconnect than the calibrated
   1988-vintage default (100 Mbit/s, light per-frame host costs):
   batching pays off most when per-RPC overhead, not raw wire time,
   dominates a transfer, which is the regime modern hardware — and
   the ROADMAP's "fast as the hardware allows" goal — lives in.  The
   calibrated experiments (T1–T3) keep the paper's network. *)

type flush_point = {
  pages : int;
  batched_ms : float;
  batched_rpcs : int;
}

type result = flush_point list

let seg_pages = 16

let page_image p = Bytes.make Ra.Page.size (Char.chr (97 + (p mod 26)))

type setup = {
  client : Dsm.Dsm_client.t;
  seg : Ra.Sysname.t;
  vs : Ra.Virtual_space.t;
  mmu : Ra.Mmu.t;
}

(* One data server holding a [seg_pages]-page segment with known
   contents, one compute server mapping it. *)
let setup () =
  let ether =
    Net.Ethernet.create (Sim.engine ()) ~config:Fixtures.ether_100m ()
  in
  let nd = Ra.Node.create ether ~id:1 ~kind:Ra.Node.Data () in
  let server = Dsm.Dsm_server.create nd () in
  let nc = Ra.Node.create ether ~id:2 ~kind:Ra.Node.Compute () in
  let client = Dsm.Dsm_client.create nc ~locate:(fun _ -> 1) () in
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
  { client; seg; vs; mmu = nc.Ra.Node.mmu }

let flush_point pages =
  Sim.exec (fun () ->
      let s = setup () in
      for p = 0 to pages - 1 do
        Ra.Mmu.write s.mmu s.vs ~addr:(p * Ra.Page.size)
          (Bytes.make 64 'w')
      done;
      let puts () =
        Obs.Registry.count (Dsm.Dsm_client.metrics s.client) "dsmc/puts"
      in
      let rpcs0 = puts () in
      let t0 = Sim.now () in
      Dsm.Dsm_client.flush_segment s.client s.seg;
      {
        pages;
        batched_ms = Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0);
        batched_rpcs = puts () - rpcs0;
      })

let run ?(flush_sizes = [ 1; 4; 16 ]) () = List.map flush_point flush_sizes

let to_json (r : result) =
  let open Obs.Export in
  let flush f =
    Obj
      [
        ("pages", int f.pages); ("batched_ms", Num f.batched_ms);
        ("batched_rpcs", int f.batched_rpcs);
      ]
  in
  Obj [ ("flushes", Arr (List.map flush r)) ]
