module P = Dsm.Protocol
module Cl = Clouds.Cluster

type t = { members : Ra.Sysname.t array; homes : Net.Address.t array }

let create om ~class_name ~degree arg =
  let cl = Clouds.Object_manager.cluster om in
  let ndata = Array.length cl.Cl.data_nodes in
  if degree < 1 || degree > ndata then
    invalid_arg
      "Replica.create: degree must be within the number of data servers";
  let homes =
    Array.init degree (fun i -> cl.Cl.data_nodes.(i mod ndata).Ra.Node.id)
  in
  let members =
    Array.map
      (fun home ->
        Clouds.Object_manager.create_object om ~home ~class_name arg)
      homes
  in
  { members; homes }

let degree t = Array.length t.members

let pick t i = t.members.(i mod Array.length t.members)

let live_node cl =
  match
    Array.to_list cl.Cl.compute_nodes |> List.find_opt (fun n -> n.Ra.Node.alive)
  with
  | Some n -> n
  | None -> invalid_arg "Replica: no live compute server"

let copy_state om t ~from_index ~to_index =
  let cl = Clouds.Object_manager.cluster om in
  let node = live_node cl in
  let locate seg = Clouds.Placement.locate cl.Cl.placement seg in
  let persistent obj =
    Clouds.Object_manager.fetch_descriptor om node obj
    |> Option.map (fun d ->
           List.filter
             (fun e -> not (String.equal e.Store.Directory.role "code"))
             d.Store.Directory.entries)
  in
  match (persistent t.members.(from_index), persistent t.members.(to_index)) with
  | None, _ | _, None -> false
  | Some src, Some dst -> (
      (* the committed image of every source page, read from the
         store with no coherence side effects; a page the store does
         not return was never written and copies as zeros *)
      let exception Unreachable in
      let image (s : Store.Directory.entry) (d : Store.Directory.entry) =
        let got = Hashtbl.create 8 in
        if
          not
            (Clouds.Replicator.read_pages node ~src:(locate s.seg) s.seg
               (fun pages ->
                 List.iter (fun (p, b) -> Hashtbl.replace got p b) pages;
                 true))
        then raise Unreachable;
        ( d.seg,
          List.init (Ra.Page.count_for s.size) (fun p ->
              ( d.seg,
                p,
                match Hashtbl.find_opt got p with
                | Some b -> b
                | None -> Ra.Page.zero () )) )
      in
      let overwrite (seg, writes) =
        match P.call node ~dst:(locate seg) (P.Overwrite writes) with
        | Ok P.Batch_ok -> true
        | Ok _ | Error Ratp.Endpoint.Timeout -> false
      in
      match
        List.filter_map
          (fun (s : Store.Directory.entry) ->
            List.find_opt
              (fun (d : Store.Directory.entry) -> String.equal d.role s.role)
              dst
            |> Option.map (image s))
          src
      with
      | images -> List.for_all overwrite images
      | exception Unreachable -> false)

let live_members om t =
  let cl = Clouds.Object_manager.cluster om in
  Array.to_list t.homes
  |> List.mapi (fun i home -> (i, home))
  |> List.filter_map (fun (i, home) ->
         match Cl.node_by_id cl home with
         | Some n when n.Ra.Node.alive -> Some i
         | Some _ | None -> None)
