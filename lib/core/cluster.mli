(** Cluster assembly: the Clouds system configuration.

    A cluster wires together data servers (segment stores + DSM
    servers), diskless compute servers (DSM clients), and user
    workstations on one Ethernet — Figure 3 of the paper.  It also
    holds the system-wide configuration knowledge: which classes are
    loaded and where segments and objects live ({!Placement}).

    Addresses: data servers get 1..d, compute servers d+1..d+c,
    workstations d+c+1 onward. *)

type state
(** Everything the cluster learns after boot besides placement —
    loaded classes, scheduling policy and counters, name-shard state,
    volatile segments and the membership monitor — read and written
    only through the functions below. *)

type t = private {
  eng : Sim.Engine.t;
  ether : Net.Ethernet.t;
  replication : int;
      (** target copies per segment (1 = the historical single-home
          configuration; no mirror traffic at all) *)
  compute_nodes : Ra.Node.t array;
  clients : Dsm.Dsm_client.t array;  (** parallel to [compute_nodes] *)
  data_nodes : Ra.Node.t array;
  servers : Dsm.Dsm_server.t array;  (** parallel to [data_nodes] *)
  workstations : (Ra.Node.t * Terminal.t) array;
  placement : Placement.t;
      (** where segments and objects live, and the placement ring;
          every DSM client resolves faults through it *)
  state : state;
}

val create :
  Sim.Engine.t ->
  ?ratp_config:Ratp.Endpoint.config ->
  ?ether_config:Net.Ethernet.config ->
  ?replication:int ->
  ?group_commit_window:Sim.Time.span ->
  ?checkpoint_every:Sim.Time.span ->
  compute:int ->
  data:int ->
  workstations:int ->
  unit ->
  t
(** Build and boot a cluster.  Requires at least one compute and one
    data server.  [group_commit_window] and [checkpoint_every] are
    forwarded to every {!Dsm.Dsm_server.create} (batched WAL
    flushes, pipelined commits and fuzzy checkpoints — default off,
    keeping the historical force-per-record commit path).
    [replication] (default 1) is the target
    number of data servers holding each segment: primaries forward
    committed writes to the backups, and the replicator re-creates
    lost copies when membership condemns a server.  Every DSM server
    and client resolves a segment's consistency mode through
    {!Placement.mode}. *)

val pick_compute : t -> Ra.Node.t
(** Scheduling decision for a new thread, according to the
    {!set_scheduler} policy: round robin over live compute servers, or the
    least-loaded live compute server (CPU queue length, ties to the
    lowest address). *)

val set_scheduler : t -> [ `Round_robin | `Least_loaded ] -> unit
(** Thread-placement policy (default round robin) — the paper's
    "scheduling decision may depend on scheduling policies and the
    load at each compute server". *)

val place_object : t -> Ra.Sysname.t -> Net.Address.t
(** Ring placement on the object's sysname hash: the owner of the
    hash's arc, or the next usable member along the ring when the
    owner is down. *)

val name_shard : t -> string -> Net.Address.t
(** The data-server shard owning a name binding: the ring owner of
    the name's hash, or the lowest-addressed data server when
    sharding is off. *)

val set_name_sharding : t -> bool -> unit
(** Toggle name sharding (default on).  Flip only before the first
    binding: existing bindings stay in the shard they were routed
    to. *)

val bind_leader : t -> Net.Address.t -> Ra.Node.t
(** The deterministic compute node that serializes writes to the
    given shard. *)

val ns_lock : t -> Net.Address.t -> Sim.Mutex.t
(** The shard's write lock (created on first use).  Only mutations
    take it; lookups are lock-free. *)

val name_shard_object :
  t -> Net.Address.t -> create:(unit -> Ra.Sysname.t) -> Ra.Sysname.t
(** The shard's name-server object, made by [create] on first use. *)

val name_shards : t -> (Net.Address.t * Ra.Sysname.t) list
(** Every booted shard and its object, by address. *)

val prev_name_shard : t -> string -> Net.Address.t option
(** The booted shard the previous ring assigned [name], when a remap
    moved the name away from it: a binding made before the last ring
    change may (also) live there.  [None] with sharding off. *)

val node_by_id : t -> int -> Ra.Node.t option
(** Any node (data, compute or workstation) by address. *)

val client_of : t -> int -> Dsm.Dsm_client.t option
(** The DSM client of a compute node. *)

val server_at : t -> Net.Address.t -> Dsm.Dsm_server.t option

val register_class : t -> Obj_class.t -> unit
(** "Compile and load" a class: record it in the system-wide registry
    and materialize its shared code segment on a data server.  This
    is a configuration-time action, like the prototype's compiler
    loading classes from the Unix workstation. *)

val find_class : t -> string -> Obj_class.t option

val classes : t -> Obj_class.t list
(** Every loaded class, by name. *)

val code_segment : t -> string -> Ra.Sysname.t option
(** The code segment every instance of the named class shares. *)

val is_code_segment : t -> Ra.Sysname.t -> bool
(** Some class's shared, read-only code segment. *)

val membership_usable : t -> Net.Address.t -> bool
(** The membership view has not condemned the address (always true
    while no view runs). *)

val usable : t -> Ra.Node.t -> bool
(** The node is up and {!membership_usable}: the test every placement
    and scheduling decision applies. *)

val usable_data : t -> Net.Address.t list
(** The {!usable} data servers, by address. *)

val replica_targets : t -> primary:Net.Address.t -> Net.Address.t list
(** Placement for a fresh segment: [primary] plus the next
    [replication - 1] usable data servers by address, wrapping. *)

val next_after :
  primary:Net.Address.t -> int -> Net.Address.t list -> Net.Address.t list
(** [next_after ~primary n addrs] is the first [n] of the sorted
    [addrs] in address order starting just above [primary] and
    wrapping: the walk {!replica_targets} places backups with. *)

val start_membership :
  t -> ?config:Membership.Monitor.config -> unit -> Membership.Monitor.t
(** Host a heartbeat monitor on the first compute server, watching
    every other node, and push each new view into all DSM servers
    (suspect lifetime) and the placement ring ({!remap_ring}).
    Idempotent.  The caller must {!Membership.Monitor.stop} it before
    the end of the simulation or the periodic processes keep the
    engine alive forever. *)

val membership : t -> Membership.Monitor.t option
(** The monitor {!start_membership} started, if any. *)

val remap_ring : t -> Membership.Monitor.view -> unit
(** Fold a membership view into the placement ring: rebuild it over
    the data servers the view does not condemn and, if the member set
    changed, keep the old ring as {!Placement.prev_ring}.  Called
    automatically by the {!start_membership} subscriber; exposed for
    tests and for externally-fed views. *)

val register_volatile : t -> Ra.Node.t -> Ra.Sysname.t -> unit
val is_volatile : t -> Ra.Node.t -> Ra.Sysname.t -> bool

val fresh_txn : t -> Ra.Node.t -> int * int
(** A cluster-unique transaction id minted at the given node. *)

val fresh_thread : t -> int
(** A cluster-unique thread id (the first is 1). *)

