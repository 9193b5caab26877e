(** Machines.

    A node is one computer in the cluster: compute server, data
    server or user workstation (the paper's three logical machine
    categories; a physical machine may host several roles, which the
    cluster layer models with a node of kind [Data] that also accepts
    invocations).  Each node owns a CPU, an MMU, and a RaTP endpoint;
    every process belonging to the node is tagged with its id so a
    crash kills them all. *)

type kind = Compute | Data | Workstation

type t = {
  id : int;  (** also the node's network address *)
  kind : kind;
  eng : Sim.Engine.t;
  ether : Net.Ethernet.t;
  cpu : Cpu.t;
  mmu : Mmu.t;
  endpoint : Ratp.Endpoint.t;
  names : Sysname.gen;
  mutable alive : bool;
  mutable sched_load : int;
      (** threads currently assigned here by the thread manager; a
          load-based scheduler reads CPU occupancy plus this *)
}

val create :
  Net.Ethernet.t ->
  id:int ->
  kind:kind ->
  ?ratp_config:Ratp.Endpoint.config ->
  ?max_frames:int ->
  unit ->
  t
(** [max_frames] bounds the machine's physical page frames (LRU
    eviction through the MMU); unbounded by default. *)

val crash : t -> unit
(** Take the machine down: kill its processes, detach its NIC, and
    drop all volatile memory (MMU frames).  Stable storage on data
    servers survives — that lives in the [store] library. *)

val restart : t -> unit
(** Bring the machine back: reattach the NIC and restart the RaTP
    receive loop.  Memory starts cold; services must be
    re-registered by the owning subsystem. *)

val spawn : t -> string -> (unit -> unit) -> Sim.Engine.pid
(** Spawn a process belonging to this node (dies with it). *)

val pp_kind : Format.formatter -> kind -> unit
