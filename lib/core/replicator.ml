module P = Dsm.Protocol
module M = Membership.Monitor

type t = {
  cl : Cluster.t;
  node : Ra.Node.t;  (* monitor host; heal RPCs issue from here *)
  healing : unit Ra.Sysname.Table.t;
  mutable known_dead : Net.Address.t list;
  mutable active : int;  (* heal passes in flight *)
  mutable last_heal_at : Sim.Time.t option;
  copied : Sim.Stats.counter;
}

(* The segment's size as the source currently stores it (an empty
   Read_pages reply carries the size and nothing else). *)
let probe_size t ~src ~seg =
  match P.call t.node ~dst:src (P.Read_pages { seg; from = 0; count = 0 }) with
  | Ok (P.Pages { size; _ }) -> Some size
  | Ok _ | Error Ratp.Endpoint.Timeout -> None

(* Give [dst] a fresh, all-zero segment of [size] bytes; a stale copy
   left over from an earlier replica stint is deleted first. *)
let prepare_target t ~seg ~dst ~size =
  match P.call t.node ~dst (P.Create_segment { seg; size }) with
  | Ok P.Segment_ok -> true
  | Ok P.Segment_error -> (
      match P.call t.node ~dst (P.Delete_segment seg) with
      | Ok _ -> (
          match P.call t.node ~dst (P.Create_segment { seg; size }) with
          | Ok P.Segment_ok -> true
          | Ok _ | Error Ratp.Endpoint.Timeout -> false)
      | Error Ratp.Endpoint.Timeout -> false)
  | Ok _ | Error Ratp.Endpoint.Timeout -> false

(* The batch is kept small on purpose: a batch of pages rides in one
   RaTP call, and a call that takes longer than the transport's whole
   retry ladder to deliver is indistinguishable from a dead peer.
   Four pages (~16 KB) stays well inside even the aggressive configs
   the experiments use. *)
let read_pages node ~src seg f =
  let batch = 4 in
  let rec go from =
    match P.call node ~dst:src (P.Read_pages { seg; from; count = batch }) with
    | Ok (P.Pages { size; pages }) ->
        (pages = [] || f pages)
        && (from + batch >= (size + Ra.Page.size - 1) / Ra.Page.size
           || go (from + batch))
    | Ok _ | Error Ratp.Endpoint.Timeout -> false
  in
  go 0

(* Ship [seg]'s pages from [src] to [dst] in Read_pages/Backfill
   rounds.  The caller has already enlisted [dst] as a mirror, so
   client writes race the copy; [Backfill] lands a page only where
   the target is still zeroed, which makes the race harmless — a
   non-zero page was filled by a fresher mirrored write.  Returns
   false if either side stops answering. *)
let backfill t ~seg ~src ~dst =
  read_pages t.node ~src seg (fun pages ->
      let writes = List.map (fun (p, b) -> (seg, p, b)) pages in
      match P.call t.node ~dst (P.Backfill writes) with
      | Ok P.Batch_ok ->
          Sim.Stats.incr_by t.copied (List.length pages);
          true
      | Ok _ | Error Ratp.Endpoint.Timeout -> false)

(* Bring one fresh copy of [seg] up on [dst]: wipe/create the target,
   then enlist it as a filling backup around the backfill (mirroring
   starts at once, but failover will not promote a half copy, and a
   failed copy is taken back out of the replica list). *)
let copy_segment t ~seg ~src ~dst =
  match probe_size t ~src ~seg with
  | None -> false
  | Some size ->
      prepare_target t ~seg ~dst ~size
      && Placement.enlist t.cl.Cluster.placement seg dst ~fill:(fun () ->
             backfill t ~seg ~src ~dst)

(* A fresh backup also needs the object directory entries whose
   segments it now mirrors; descriptors are tiny, so the whole
   directory of [src] is mirrored onto [dst]. *)
let copy_directory t ~src ~dst =
  match P.call t.node ~dst:src P.List_objects with
  | Ok (P.Objects objs) ->
      List.iter
        (fun obj ->
          match P.call t.node ~dst:src (P.Get_descriptor obj) with
          | Ok (P.Descriptor (Some d)) -> (
              match
                P.call t.node ~dst (P.Register_object { obj; descriptor = d })
              with
              | Ok _ | Error Ratp.Endpoint.Timeout -> ())
          | Ok _ | Error Ratp.Endpoint.Timeout -> ())
        (List.sort Ra.Sysname.compare objs)
  | Ok _ | Error Ratp.Endpoint.Timeout -> ()

(* [seg]'s copies on the [healthy] data servers, primary first. *)
let live_copies t healthy seg =
  Placement.replicas t.cl.Cluster.placement seg
  |> List.filter (fun a -> List.exists (Net.Address.equal a) healthy)

(* Top up every under-replicated segment to min(factor, healthy data
   servers).  Segments are visited in sysname order and targets
   chosen by address after the primary (wrapping), so a reheal trace
   is a pure function of the seed. *)
let heal_pass t =
  let dir_pairs = ref [] in
  List.iter
    (fun seg ->
      if not (Ra.Sysname.Table.mem t.healing seg) then begin
        let healthy = Cluster.usable_data t.cl in
        let reps = live_copies t healthy seg in
        match reps with
        | [] -> ()
        | primary :: _ ->
            let want = min t.cl.Cluster.replication (List.length healthy) in
            let missing = want - List.length reps in
            if missing > 0 then begin
              Ra.Sysname.Table.replace t.healing seg ();
              Fun.protect
                ~finally:(fun () -> Ra.Sysname.Table.remove t.healing seg)
              @@ fun () ->
              let cands =
                List.filter
                  (fun a -> not (List.exists (Net.Address.equal a) reps))
                  healthy
              in
              let targets = Cluster.next_after ~primary missing cands in
              let added =
                List.filter
                  (fun dst -> copy_segment t ~seg ~src:primary ~dst)
                  targets
              in
              (* [copy_segment] already enlisted each target in the
                 replica list (before its backfill, so mirrored writes
                 covered the copy window) *)
              List.iter
                (fun dst -> dir_pairs := (primary, dst) :: !dir_pairs)
                added
            end
      end)
    (Placement.live_segments t.cl.Cluster.placement);
  List.sort_uniq compare (List.rev !dir_pairs)
  |> List.iter (fun (src, dst) -> copy_directory t ~src ~dst)

(* Is any tracked segment still short of copies?  (Lost segments are
   excluded: nothing can be copied until their last home rejoins.) *)
let under_replicated t =
  let healthy = Cluster.usable_data t.cl in
  let want_max = min t.cl.Cluster.replication (List.length healthy) in
  List.exists
    (fun seg ->
      let live = live_copies t healthy seg in
      live <> [] && List.length live < want_max)
    (Placement.live_segments t.cl.Cluster.placement)

(* A heal pass can fail half-way (the source of a copy can itself die,
   or a transfer can outlive the transport's patience), so one view
   change buys a bounded series of passes: keep trying while copies
   are still missing, give up after [max_rounds] so a cluster that
   cannot be healed does not loop forever. *)
let spawn_heal t =
  let max_rounds = 8 in
  t.active <- t.active + 1;
  ignore
    (Ra.Node.spawn t.node "re-replicate" (fun () ->
         Fun.protect
           ~finally:(fun () ->
             t.active <- t.active - 1;
             t.last_heal_at <-
               Some (Sim.Engine.now t.node.Ra.Node.eng))
           (fun () ->
             heal_pass t;
             let rec retry n =
               if n > 0 && under_replicated t then begin
                 Sim.sleep (Sim.Time.ms 30);
                 heal_pass t;
                 retry (n - 1)
               end
             in
             retry max_rounds)))

let on_view t (v : M.view) =
  let dead_now =
    List.filter_map
      (fun (m : M.member) ->
        match m.status with
        | M.Dead -> Some m.addr
        | M.Alive | M.Suspect -> None)
      v.M.members
  in
  let newly_dead =
    List.filter
      (fun a -> not (List.exists (Net.Address.equal a) t.known_dead))
      dead_now
  in
  let newly_alive =
    List.filter
      (fun a -> not (List.exists (Net.Address.equal a) dead_now))
      t.known_dead
  in
  t.known_dead <- dead_now;
  (* a rejoined server's stable store survived, so segments lost with
     it come back as they were; a condemned server's segments fail
     over inline, so every client locate after this instant resolves
     to a surviving filled replica (page copies happen in the
     background pass) *)
  List.iter (Placement.readopt t.cl.Cluster.placement) newly_alive;
  if newly_dead <> [] then
    Placement.failover t.cl.Cluster.placement ~dead:dead_now;
  if newly_dead <> [] || newly_alive <> [] then spawn_heal t

let install cl mon =
  let t =
    {
      cl;
      node = M.host mon;
      healing = Ra.Sysname.Table.create 16;
      known_dead = [];
      active = 0;
      last_heal_at = None;
      copied = Sim.Stats.counter "repl/pages_copied";
    }
  in
  M.subscribe mon (fun v -> on_view t v);
  t

let rec quiesce t =
  if t.active > 0 then begin
    Sim.sleep (Sim.Time.ms 5);
    quiesce t
  end

let last_heal t = t.last_heal_at
let metrics t = [ Sim.Stats.Counter t.copied ]
