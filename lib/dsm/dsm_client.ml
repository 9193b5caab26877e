module P = Protocol

exception Unavailable of Ra.Sysname.t

type t = {
  node : Ra.Node.t;
  locate : Ra.Sysname.t -> Net.Address.t;
  mode_of : Ra.Sysname.t -> Ra.Partition.consistency;
  loc_cache : Net.Address.t Ra.Sysname.Table.t;
  stale_dirty : (Ra.Sysname.t * int, unit) Hashtbl.t;
      (* release-mode pages we kept through an Inval_batch because
         they held unflushed local writes; their unmodified bytes are
         stale, so our own flush drops the frame instead of rebasing *)
  fetches : Sim.Stats.counter;
  puts : Sim.Stats.counter;
  invals : Sim.Stats.counter;
  downs : Sim.Stats.counter;
  loc_hits : Sim.Stats.counter;
  loc_misses : Sim.Stats.counter;
  loc_evictions : Sim.Stats.counter;
  merge_rpcs : Sim.Stats.counter;
}

let node t = t.node

(* Location cache: segment-to-home bindings are stable between
   failures, so steady-state faults skip name resolution.  Entries
   are dropped when the home stops answering (it may have moved on
   restart) and never cached on failure. *)
let locate_cached t seg =
  match Ra.Sysname.Table.find_opt t.loc_cache seg with
  | Some home ->
      Sim.Stats.incr t.loc_hits;
      home
  | None ->
      let home = t.locate seg in
      Sim.Stats.incr t.loc_misses;
      Ra.Sysname.Table.replace t.loc_cache seg home;
      home

let forget_location t seg = Ra.Sysname.Table.remove t.loc_cache seg
let reset_location_cache t = Ra.Sysname.Table.reset t.loc_cache

(* Selective eviction for placement-ring remaps: only the bindings the
   predicate condemns (the moved arc) are dropped; everything else
   keeps its warm location. *)
let evict_where t pred =
  let doomed =
    Ra.Sysname.Table.fold
      (fun seg home acc -> if pred seg home then seg :: acc else acc)
      t.loc_cache []
  in
  List.iter
    (fun seg ->
      Sim.Stats.incr t.loc_evictions;
      Ra.Sysname.Table.remove t.loc_cache seg)
    doomed;
  List.length doomed

(* The stale-location fix: when the membership view condemns a node,
   drop every cached binding pointing at it immediately, so the next
   fault re-resolves through the locate path (which the cluster has
   already repointed at a surviving replica) instead of burning a full
   RaTP retry ladder against the corpse. *)
let apply_view t (v : Membership.Monitor.view) =
  let dead =
    List.filter_map
      (fun (m : Membership.Monitor.member) ->
        match m.status with
        | Membership.Monitor.Dead -> Some m.addr
        | Membership.Monitor.Alive | Membership.Monitor.Suspect -> None)
      v.Membership.Monitor.members
  in
  if dead <> [] then begin
    let doomed =
      Ra.Sysname.Table.fold
        (fun seg home acc ->
          if List.exists (Net.Address.equal home) dead then seg :: acc
          else acc)
        t.loc_cache []
    in
    List.iter
      (fun seg ->
        Sim.Stats.incr t.loc_evictions;
        Ra.Sysname.Table.remove t.loc_cache seg)
      doomed
  end

let remote_fetch t ~seg ~page ~mode =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.fetch" @@ fun () ->
  let home = locate_cached t seg in
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
  | Ok P.Page_error ->
      forget_location t seg;
      raise (Ra.Partition.No_segment seg)
  | Ok _ -> raise (Unavailable seg)
  | Error Ratp.Endpoint.Timeout ->
      forget_location t seg;
      raise (Unavailable seg)

let remote_write_batch t ~seg writes =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.put" @@ fun () ->
  let home = locate_cached t seg in
  Sim.Stats.incr t.puts;
  match P.call t.node ~dst:home (P.Put_batch writes) with
  | Ok P.Batch_ok -> ()
  | Ok P.Segment_error ->
      forget_location t seg;
      raise (Ra.Partition.No_segment seg)
  | Ok _ -> raise (Unavailable seg)
  | Error Ratp.Endpoint.Timeout ->
      forget_location t seg;
      raise (Unavailable seg)

let partition t =
  {
    Ra.Partition.name = Printf.sprintf "dsm-client-%d" t.node.Ra.Node.id;
    fetch = remote_fetch t;
    writeback =
      (fun ~seg ~page data -> remote_write_batch t ~seg [ (seg, page, data) ]);
  }

let create node ~locate ?(consistency = fun _ -> Ra.Partition.One_copy) () =
  let t =
    {
      node;
      locate;
      mode_of = consistency;
      loc_cache = Ra.Sysname.Table.create 32;
      stale_dirty = Hashtbl.create 16;
      fetches = Sim.Stats.counter "dsmc.fetches";
      puts = Sim.Stats.counter "dsmc.puts";
      invals = Sim.Stats.counter "dsmc.invals";
      downs = Sim.Stats.counter "dsmc.downs";
      loc_hits = Sim.Stats.counter "dsmc.loc_hits";
      loc_misses = Sim.Stats.counter "dsmc.loc_misses";
      loc_evictions = Sim.Stats.counter "dsmc.loc_evictions";
      merge_rpcs = Sim.Stats.counter "dsmc.merge_rpcs";
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
                  Hashtbl.replace t.stale_dirty (seg, page) ()
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
   each page's twin, in one Put_diffs RPC.  Sub-page application at
   the home means two lock scopes writing disjoint bytes of the same
   page cannot clobber each other, and the home's apply triggers the
   deferred invalidation burst that ends this scope. *)
let flush_release t seg dirty =
 Obs.Tracer.with_span ~node:t.node.Ra.Node.id "dsm.put" @@ fun () ->
  let mmu = t.node.Ra.Node.mmu in
  let home = locate_cached t seg in
  Sim.Stats.incr t.puts;
  let entries =
    List.map
      (fun (page, data) ->
        match Ra.Mmu.page_base mmu seg page with
        | Some base -> (seg, page, diff_spans ~base ~current:data)
        | None -> (seg, page, [ (0, data) ]))
      dirty
  in
  match P.call t.node ~dst:home (P.Put_diffs entries) with
  | Ok P.Batch_ok ->
      List.iter
        (fun (page, _) ->
          if Hashtbl.mem t.stale_dirty (seg, page) then begin
            (* another scope flushed under us: our diff is home, but
               the frame's unmodified bytes are stale — refetch on
               next touch *)
            Hashtbl.remove t.stale_dirty (seg, page);
            ignore (Ra.Mmu.invalidate mmu seg page)
          end
          else begin
            Ra.Mmu.mark_clean mmu seg page;
            Ra.Mmu.rebase mmu seg page
          end)
        dirty
  | Ok P.Segment_error ->
      forget_location t seg;
      raise (Ra.Partition.No_segment seg)
  | Ok _ -> raise (Unavailable seg)
  | Error Ratp.Endpoint.Timeout ->
      forget_location t seg;
      raise (Unavailable seg)

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
  let home = locate_cached t seg in
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
  | Ok P.Segment_error ->
      forget_location t seg;
      raise (Ra.Partition.No_segment seg)
  | Ok _ -> raise (Unavailable seg)
  | Error Ratp.Endpoint.Timeout ->
      forget_location t seg;
      raise (Unavailable seg)

(* Writeback of a segment's dirty pages, home in one RPC (RaTP
   fragments it on the wire): a Put_batch of page images for one-copy
   segments, diffs for release mode, merge deltas for commutative. *)
let flush_segment t seg =
  let mmu = t.node.Ra.Node.mmu in
  match Ra.Mmu.dirty_pages mmu seg with
  | [] -> ()
  | dirty -> (
      match t.mode_of seg with
      | Ra.Partition.Release -> flush_release t seg dirty
      | Ra.Partition.Commutative op -> flush_merges t seg op dirty
      | Ra.Partition.One_copy ->
          remote_write_batch t ~seg
            (List.map (fun (page, data) -> (seg, page, data)) dirty);
          List.iter (fun (page, _) -> Ra.Mmu.mark_clean mmu seg page) dirty)

let remote_fetches t = Sim.Stats.value t.fetches
let put_rpcs t = Sim.Stats.value t.puts
let invalidations_received t = Sim.Stats.value t.invals
let downgrades_received t = Sim.Stats.value t.downs
let location_hits t = Sim.Stats.value t.loc_hits
let location_misses t = Sim.Stats.value t.loc_misses
let location_evictions t = Sim.Stats.value t.loc_evictions
let merge_flushes t = Sim.Stats.value t.merge_rpcs

let metrics t =
  [
    ("dsmc/fetches", Obs.Registry.Counter t.fetches);
    ("dsmc/puts", Obs.Registry.Counter t.puts);
    ("dsmc/invals", Obs.Registry.Counter t.invals);
    ("dsmc/downs", Obs.Registry.Counter t.downs);
    ("dsmc/loc_hits", Obs.Registry.Counter t.loc_hits);
    ("dsmc/loc_misses", Obs.Registry.Counter t.loc_misses);
    ("dsmc/loc_evictions", Obs.Registry.Counter t.loc_evictions);
    ("dsm/mode/merge_rpcs", Obs.Registry.Counter t.merge_rpcs);
  ]
