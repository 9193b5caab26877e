(** The cluster's unified metrics registry.

    Collects every node's scattered [Sim.Stats] handles — transport
    counters from its RaTP endpoint, its MMU's page faults and its
    CPU's context switches, plus its DSM role (server on
    data nodes, client on compute nodes) — into one {!Obs.Registry}
    per node, with a ["cluster"] registry for node-independent
    metrics (the object manager's, the membership monitor's once
    {!Cluster.start_membership} has run, plus any [extra] handles a
    layer above this library wires in, e.g. atomicity or the
    {!Replicator}). *)

val registries :
  ?om:Object_manager.t ->
  ?extra:Sim.Stats.metric list ->
  Cluster.t ->
  Obs.Registry.t list
(** The cluster registry first, then data nodes, then compute nodes
    (address order).  Registries hold live handles: build once,
    snapshot at any point. *)
