(** The name server — itself a Clouds object, sharded across the
    cluster's data servers.

    Users give objects high-level names; the name server translates
    them to sysnames.  True to the paper's philosophy, the service is
    implemented {e as application objects}: each data server hosts one
    name-server object holding the arc of the name space the placement
    ring assigns it, bindings live in that object's persistent data
    and heap, and lookups are ordinary invocations routed to the
    owning shard.  Lookups are accelerated by a volatile hash-indexed
    directory per shard (the durable form stays the persistent-heap
    list).  With {!Cluster.set_name_sharding} off, everything funnels
    through a single shard — the original centralized configuration,
    kept for A/B comparison. *)

val boot : Object_manager.t -> Ra.Sysname.t
(** Load the class (if needed) and create the default shard's object
    (lowest-addressed data server).  Idempotent.  Other shards boot
    lazily on first use. *)

val bind : Object_manager.t -> name:string -> Ra.Sysname.t -> unit
(** Register or replace a binding.  Routed to the owning shard's bind
    leader and serialized under the shard write lock. *)

val lookup : ?on:Ra.Node.t -> Object_manager.t -> string -> Ra.Sysname.t option
(** Resolve a name at its owning shard, running the invocation on
    [on] (default: the cluster's scheduling choice).  On a miss right
    after a ring remap, falls back to the shard the previous ring
    assigned the name. *)

val unbind : Object_manager.t -> string -> unit

val bindings : Object_manager.t -> (string * Ra.Sysname.t) list
(** All bindings across every booted shard, unordered. *)
