(* Build the cluster's metric registries: one per node (transport,
   MMU and CPU, plus its DSM role) and one cluster-wide (object
   manager, membership monitor once started, and whatever extra
   handles the caller wires in, e.g. the atomicity layer's — a layer
   above this library).  Registries hold live handles, so build them
   once and snapshot whenever. *)

let node_registry label (node : Ra.Node.t) role_metrics =
  Obs.Registry.make label
    (Ratp.Endpoint.metrics node.Ra.Node.endpoint
    @ Ra.Mmu.metrics node.Ra.Node.mmu
    @ Ra.Cpu.metrics node.Ra.Node.cpu
    @ role_metrics)

let registries ?om ?(extra = []) (cl : Cluster.t) =
  let data =
    Array.to_list
      (Array.mapi
         (fun i node ->
           node_registry
             (Printf.sprintf "data-%d" node.Ra.Node.id)
             node
             (Dsm.Dsm_server.metrics cl.Cluster.servers.(i)))
         cl.Cluster.data_nodes)
  in
  let compute =
    Array.to_list
      (Array.mapi
         (fun i node ->
           node_registry
             (Printf.sprintf "compute-%d" node.Ra.Node.id)
             node
             (Dsm.Dsm_client.metrics cl.Cluster.clients.(i)))
         cl.Cluster.compute_nodes)
  in
  let cluster =
    Obs.Registry.make "cluster"
      ((match om with Some om -> Object_manager.metrics om | None -> [])
      @ (match Cluster.membership cl with
        | Some m -> Membership.Monitor.metrics m
        | None -> [])
      @ extra)
  in
  (cluster :: data) @ compute
