module Tbl = Ra.Sysname.Table

type seg =
  | Live of { replicas : Net.Address.t list; filling : Net.Address.t list }
      (* primary first, never empty; [filling] are the enlisted
         backups whose backfill has not completed *)
  | Lost of Net.Address.t  (* the primary the last filled copy died with *)

type t = {
  segs : seg Tbl.t;
  modes : Ra.Partition.consistency Tbl.t;  (* absent = One_copy *)
  homes : Net.Address.t Tbl.t;
  mutable ring : Ring.t;
  mutable prev_ring : Ring.t option;
}

let create members =
  {
    segs = Tbl.create 64;
    modes = Tbl.create 16;
    homes = Tbl.create 64;
    ring = Ring.make members;
    prev_ring = None;
  }

let locate t seg =
  match Tbl.find_opt t.segs seg with
  | Some (Live { replicas = primary :: _; _ }) | Some (Lost primary) -> primary
  | Some (Live { replicas = []; _ }) | None ->
      raise (Ra.Partition.No_segment seg)

let replicas t seg =
  match Tbl.find_opt t.segs seg with
  | Some (Live { replicas; _ }) -> replicas
  | Some (Lost _) | None -> []

let live_segments t =
  Tbl.fold
    (fun seg s acc -> match s with Live _ -> seg :: acc | Lost _ -> acc)
    t.segs []
  |> List.sort Ra.Sysname.compare

let lost_segments t =
  Tbl.fold
    (fun _ s n -> match s with Lost _ -> n + 1 | Live _ -> n)
    t.segs 0

let place t seg replicas =
  if replicas = [] then invalid_arg "Placement.place: empty replica list";
  Tbl.replace t.segs seg (Live { replicas; filling = [] })

let without a = List.filter (fun b -> not (Net.Address.equal a b))

(* [fill] runs (and yields) between the enlisting and the verdict, so
   the entry is re-read afterwards: a failover may have rewritten it. *)
let enlist t seg dst ~fill =
  match Tbl.find_opt t.segs seg with
  | Some (Live { replicas; filling }) ->
      Tbl.replace t.segs seg
        (Live { replicas = replicas @ [ dst ]; filling = dst :: filling });
      let ok = fill () in
      (match Tbl.find_opt t.segs seg with
      | Some (Live { replicas; filling }) ->
          let replicas = if ok then replicas else without dst replicas in
          if replicas <> [] then
            Tbl.replace t.segs seg
              (Live { replicas; filling = without dst filling })
      | Some (Lost _) | None -> ());
      ok
  | Some (Lost _) | None -> false

let failover t ~dead =
  let is_dead a = List.exists (Net.Address.equal a) dead in
  let alive = List.filter (fun a -> not (is_dead a)) in
  Tbl.filter_map_inplace
    (fun _ s ->
      match s with
      | Live { replicas = primary :: _ as replicas; filling }
        when List.exists is_dead replicas -> (
          let filling = alive filling in
          let filled a = not (List.mem a filling) in
          (* only a filled copy may become primary; with none left the
             segment waits for its primary to rejoin *)
          match List.filter filled (alive replicas) with
          | [] -> Some (Lost primary)
          | filled -> Some (Live { replicas = filled @ filling; filling }))
      | Live _ | Lost _ -> Some s)
    t.segs;
  Tbl.filter_map_inplace
    (fun _ home -> if is_dead home then None else Some home)
    t.homes

let readopt t a =
  Tbl.filter_map_inplace
    (fun _ s ->
      match s with
      | Lost primary when Net.Address.equal primary a ->
          Some (Live { replicas = [ a ]; filling = [] })
      | Lost _ | Live _ -> Some s)
    t.segs

let remove t seg =
  Tbl.remove t.segs seg;
  Tbl.remove t.modes seg

let mode t seg =
  match Tbl.find_opt t.modes seg with
  | Some m -> m
  | None -> Ra.Partition.One_copy

let set_mode t seg = function
  | Ra.Partition.One_copy -> Tbl.remove t.modes seg
  | m -> Tbl.replace t.modes seg m

let home t obj = Tbl.find_opt t.homes obj
let set_home t obj home = Tbl.replace t.homes obj home
let forget_home t obj = Tbl.remove t.homes obj
let ring t = t.ring
let prev_ring t = t.prev_ring

let remap t members =
  if members <> [] && members <> Ring.members t.ring then begin
    t.prev_ring <- Some t.ring;
    t.ring <- Ring.make members
  end
