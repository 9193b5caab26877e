(** Cluster assembly: the Clouds system configuration.

    A cluster wires together data servers (segment stores + DSM
    servers), diskless compute servers (DSM clients), and user
    workstations on one Ethernet — Figure 3 of the paper.  It also
    holds the system-wide configuration knowledge: which classes are
    loaded, where segments and objects live, and the entry wrapper
    the atomicity layer installs around labelled entry points.

    Addresses: data servers get 1..d, compute servers d+1..d+c,
    workstations d+c+1 onward. *)

type t = {
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
  classes : (string, Obj_class.t) Hashtbl.t;
  class_code : (string, Ra.Sysname.t) Hashtbl.t;
      (** instances of a class share one code segment *)
  seg_home : Net.Address.t Ra.Sysname.Table.t;
  seg_replicas : Net.Address.t list Ra.Sysname.Table.t;
      (** full replica list per segment, primary first; segments with
          no entry live only at their [seg_home] *)
  seg_modes : Ra.Partition.consistency Ra.Sysname.Table.t;
      (** per-segment consistency mode; absent = [One_copy] *)
  obj_home : Net.Address.t Ra.Sysname.Table.t;
  volatile : (int, unit Ra.Sysname.Table.t) Hashtbl.t;
  mutable scheduler : [ `Round_robin | `Least_loaded ];
      (** thread-placement policy (the paper's "scheduling decision
          may depend on scheduling policies and the load at each
          compute server") *)
  mutable rr_compute : int;
  mutable next_thread : int;
  mutable next_txn : int;
  mutable entry_wrapper :
    Obj_class.consistency -> Ctx.t -> (unit -> Value.t) -> Value.t;
      (** installed by the atomicity layer; default runs the body *)
  mutable ring : Ring.t;
      (** consistent-hash placement ring over the usable data servers;
          rebuilt on every membership view that changes the member
          set *)
  mutable prev_ring : Ring.t option;
      (** the ring one view-change ago — the fallback generation a
          lookup consults for bindings made before a remap *)
  mutable name_sharding : bool;
      (** route name bindings to the ring owner of the name (default);
          [false] funnels everything through one shard — the
          historical centralized server kept as the A/B baseline *)
  name_shards : (Net.Address.t, Ra.Sysname.t) Hashtbl.t;
      (** lazily created name-server object per data-server shard *)
  ns_locks : (Net.Address.t, Sim.Mutex.t) Hashtbl.t;
      (** per-shard write lock: binds and unbinds to a shard hold it,
          so two writers never interleave list surgery on its heap.
          Lookups take no lock (DESIGN.md §14) *)
  mutable membership : Membership.Monitor.t option;
      (** set by {!start_membership}; [None] keeps all failure
          handling purely timeout-driven as before *)
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
    lost copies when membership condemns a server. *)

val consistency_of : t -> Ra.Sysname.t -> Ra.Partition.consistency
(** A segment's consistency mode ([One_copy] when never set); every
    DSM client resolves through this. *)

val set_consistency : t -> Ra.Sysname.t -> Ra.Partition.consistency -> unit
(** Record a segment's mode cluster-wide and mirror it onto every
    data server.  Change modes only while the segment has no cached
    remote copies (normally set once at creation). *)

val pick_compute : t -> Ra.Node.t
(** Scheduling decision for a new thread, according to
    [t.scheduler]: round robin over live compute servers, or the
    least-loaded live compute server (CPU queue length, ties to the
    lowest address). *)

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

val locate_segment : t -> Ra.Sysname.t -> Net.Address.t
(** Raises {!Ra.Partition.No_segment} for unknown segments. *)

val add_segment : t -> Ra.Sysname.t -> Net.Address.t -> unit

val replicas_of : t -> Ra.Sysname.t -> Net.Address.t list
(** Full replica list of a segment, primary first; [[home]] for
    unreplicated segments and [[]] for unknown ones. *)

val set_replicas : t -> Ra.Sysname.t -> Net.Address.t list -> unit
(** Record a segment's replica list; the head becomes the primary
    that {!locate_segment} resolves to.  Raises [Invalid_argument] on
    an empty list. *)

val remove_segment : t -> Ra.Sysname.t -> unit
(** Drop a segment from the placement tables (object deletion). *)

val membership_usable : t -> Net.Address.t -> bool
(** The membership view has not condemned the address (always true
    while no view runs). *)

val usable : t -> Ra.Node.t -> bool
(** The node is up and {!membership_usable}: the test every placement
    and scheduling decision applies. *)

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
    Idempotent.  The caller must {!stop_membership} before the end of
    the simulation or the periodic processes keep the engine alive
    forever. *)

val stop_membership : t -> unit

val membership_view : t -> Membership.Monitor.view option

val remap_ring : t -> Membership.Monitor.view -> unit
(** Fold a membership view into the placement ring: rebuild it over
    the data servers the view does not condemn and, if the member set
    changed, keep the old ring as [prev_ring].  Called automatically by the {!start_membership}
    subscriber; exposed for tests and for externally-fed views. *)

val register_volatile : t -> Ra.Node.t -> Ra.Sysname.t -> unit
val is_volatile : t -> Ra.Node.t -> Ra.Sysname.t -> bool

val fresh_txn : t -> Ra.Node.t -> int * int
(** A cluster-unique transaction id minted at the given node. *)
