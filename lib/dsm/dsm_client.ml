module P = Protocol

exception Unavailable of Ra.Sysname.t

type t = {
  node : Ra.Node.t;
  locate : Ra.Sysname.t -> Net.Address.t;
  mode_of : Ra.Sysname.t -> Ra.Partition.consistency;
  stale_dirty : unit Ra.Sysname.Page_table.t;
      (* release-mode pages we kept through an Inval_batch because
         they held unflushed local writes; their unmodified bytes are
         stale, so our own flush drops the frame instead of rebasing *)
  fetches : Sim.Stats.counter;
  puts : Sim.Stats.counter;
  invals : Sim.Stats.counter;
  downs : Sim.Stats.counter;
  merge_rpcs : Sim.Stats.counter;
}

(* A home reply other than success: the home no longer stores the
   segment, or it did not answer. *)
let home_failed seg = function
  | Ok (P.Page_error | P.Segment_error) -> raise (Ra.Partition.No_segment seg)
  | Error Ratp.Endpoint.Timeout | Ok _ -> raise (Unavailable seg)

let remote_fetch t ~seg ~page ~mode =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.fetch" @@ fun () ->
  let home = t.locate seg in
  Sim.Stats.incr t.fetches;
  let mode =
    (* commutative pages are never owned: a local write upgrade
       fetches the current image like a read and the home stays
       arbitration-free (no invalidation, no recall, ever) *)
    match (mode, t.mode_of seg) with
    | Ra.Partition.Write, Ra.Partition.Commutative _ -> Ra.Partition.Read
    | m, _ -> m
  in
  match P.call t.node ~dst:home (P.Get_page { seg; page; mode }) with
  | Ok (P.Got_page data) -> data
  | reply -> home_failed seg reply

(* A one-copy or release flush and an evicted frame each go home as
   one Put_spans RPC: per page, the spans to lay over the home's
   stored image. *)
let put_spans t seg entries =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.put" @@ fun () ->
  let home = t.locate seg in
  Sim.Stats.incr t.puts;
  match P.call t.node ~dst:home (P.Put_spans entries) with
  | Ok P.Batch_ok -> ()
  | reply -> home_failed seg reply

let partition t =
  {
    Ra.Partition.fetch = remote_fetch t;
    writeback = (fun ~seg ~page spans -> put_spans t seg [ (seg, page, spans) ]);
  }

let create node ~locate ?(consistency = fun _ -> Ra.Partition.One_copy) () =
  let t =
    {
      node;
      locate;
      mode_of = consistency;
      stale_dirty = Ra.Sysname.Page_table.create 16;
      fetches = Sim.Stats.counter "dsmc/fetches";
      puts = Sim.Stats.counter "dsmc/puts";
      invals = Sim.Stats.counter "dsmc/invals";
      downs = Sim.Stats.counter "dsmc/downs";
      merge_rpcs = Sim.Stats.counter "dsm/mode/merge_rpcs";
    }
  in
  Ra.Mmu.set_resolver node.Ra.Node.mmu (fun _seg -> partition t);
  Ra.Mmu.set_consistency node.Ra.Node.mmu consistency;
  Ratp.Endpoint.serve node.Ra.Node.endpoint ~service:P.client_service
    (fun ~src:_ body ->
      let reply =
        match body with
        | P.Invalidate { seg; page } ->
            Sim.Stats.incr t.invals;
            P.Invalidated { dirty = Ra.Mmu.invalidate node.Ra.Node.mmu seg page }
        | P.Downgrade { seg; page } ->
            Sim.Stats.incr t.downs;
            P.Downgraded { dirty = Ra.Mmu.downgrade node.Ra.Node.mmu seg page }
        | P.Inval_batch pages ->
            (* a release-mode lock scope ended: clean copies drop at
               once.  A frame holding OUR unflushed writes survives —
               its diff must still reach the home — but is marked
               stale so our own flush drops it instead of rebasing
               (its unmodified bytes predate the other scope). *)
            List.iter
              (fun (seg, page) ->
                Sim.Stats.incr t.invals;
                if Ra.Mmu.is_dirty node.Ra.Node.mmu seg page then
                  Ra.Sysname.Page_table.replace t.stale_dirty (seg, page) ()
                else ignore (Ra.Mmu.invalidate node.Ra.Node.mmu seg page))
              pages;
            P.Batch_ok
        | _ -> P.Page_error
      in
      (reply, P.request_bytes reply));
  t

(* Maximal runs of bytes that differ from the twin.  Pages are
   always Page.size, so only the common length matters. *)
let diff_spans ~base ~current =
  let n = min (Bytes.length base) (Bytes.length current) in
  let spans = ref [] in
  let i = ref 0 in
  while !i < n do
    if Bytes.get base !i <> Bytes.get current !i then begin
      let j = ref (!i + 1) in
      while !j < n && Bytes.get base !j <> Bytes.get current !j do
        incr j
      done;
      spans := (!i, Bytes.sub current !i (!j - !i)) :: !spans;
      i := !j
    end
    else incr i
  done;
  List.rev !spans

(* Release-mode writeback: ship only the byte spans changed against
   each page's twin.  Not the frame's written spans: once those cost a
   page they collapse to the whole page, which would clobber another
   lock scope's disjoint bytes.  The home's apply triggers the
   deferred invalidation burst that ends this scope. *)
let flush_release t seg dirty =
  let mmu = t.node.Ra.Node.mmu in
  put_spans t seg
    (List.map
       (fun (page, data) ->
         match Ra.Mmu.page_base mmu seg page with
         | Some base -> (seg, page, diff_spans ~base ~current:data)
         | None -> (seg, page, [ (0, data) ]))
       dirty);
  List.iter
    (fun (page, _) ->
      if Ra.Sysname.Page_table.mem t.stale_dirty (seg, page) then begin
        (* another scope flushed under us: our diff is home, but the
           frame's unmodified bytes are stale — refetch on next
           touch *)
        Ra.Sysname.Page_table.remove t.stale_dirty (seg, page);
        ignore (Ra.Mmu.invalidate mmu seg page)
      end
      else begin
        Ra.Mmu.mark_clean mmu seg page;
        Ra.Mmu.rebase mmu seg page
      end)
    dirty

(* Commutative flush: encode the local writes as merge deltas against
   each page's twin and let the home combine them; the reply carries
   the post-merge images, so anti-entropy (pulling everyone else's
   merged counters) rides the same round trip.  Each delta carries its
   twin's stamp as an idempotency key: on a timeout the pages stay
   dirty against an unchanged twin, so the re-sent flush repeats the
   stamp and the home applies only what its first application missed
   — a lost reply cannot double-count an Add delta.  Only success
   refreshes the twin (and thus allocates a fresh stamp). *)
let flush_merges t seg op dirty =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.merge" @@ fun () ->
  let mmu = t.node.Ra.Node.mmu in
  let home = t.locate seg in
  Sim.Stats.incr t.merge_rpcs;
  let deltas =
    List.map
      (fun (page, data) ->
        let base =
          match Ra.Mmu.page_base mmu seg page with
          | Some b -> b
          | None -> Bytes.make (Bytes.length data) '\000'
        in
        ( seg,
          page,
          Ra.Mmu.twin_stamp mmu seg page,
          Ra.Partition.merge_delta op ~base ~current:data ))
      dirty
  in
  match P.call t.node ~dst:home (P.Merge_delta deltas) with
  | Ok (P.Merged images) ->
      List.iter
        (fun (s, page, img) -> Ra.Mmu.merge_refresh mmu s page img)
        images
  | reply -> home_failed seg reply

(* Writeback of a segment's dirty pages, home in one RPC (RaTP
   fragments it on the wire): the written spans for one-copy segments,
   twin diffs for release mode, merge deltas for commutative. *)
let flush_segment t seg =
  let mmu = t.node.Ra.Node.mmu in
  let flush dirty_of send =
    match dirty_of mmu seg with [] -> () | dirty -> send dirty
  in
  match t.mode_of seg with
  | Ra.Partition.Release -> flush Ra.Mmu.dirty_pages (flush_release t seg)
  | Ra.Partition.Commutative op ->
      flush Ra.Mmu.dirty_pages (flush_merges t seg op)
  | Ra.Partition.One_copy ->
      flush Ra.Mmu.dirty_spans (fun dirty ->
          put_spans t seg
            (List.map (fun (page, spans) -> (seg, page, spans)) dirty);
          List.iter (fun (page, _) -> Ra.Mmu.mark_clean mmu seg page) dirty)

let metrics t =
  Sim.Stats.
    [
      Counter t.fetches;
      Counter t.puts;
      Counter t.invals;
      Counter t.downs;
      Counter t.merge_rpcs;
    ]
