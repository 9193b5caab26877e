(** The user object manager (a system object in the paper).

    Creates and deletes objects, activates them on compute servers
    (fetching the descriptor from the object's data server and
    building the virtual space), and implements invocation: mapping
    the thread into the object's address space, dispatching the entry
    point, and unmapping on return — locally, or on a remote compute
    server via a RaTP transaction. *)

exception No_object of Ra.Sysname.t
exception No_class of string
exception No_entry of Ra.Sysname.t * string

type t

val create : Cluster.t -> t
(** Install the object manager: registers the invocation service on
    every compute server. *)

val cluster : t -> Cluster.t

val create_object :
  t ->
  ?home:Net.Address.t ->
  ?on:Ra.Node.t ->
  ?thread_id:int ->
  ?origin:int ->
  ?consistency:Ra.Partition.consistency ->
  class_name:string ->
  Value.t ->
  Ra.Sysname.t
(** Instantiate a class: allocate and create the instance's segments
    on a data server ([home], default round robin), register the
    descriptor, and run the constructor (if any) on [on] (default:
    scheduler's choice).  Returns the new object's sysname.

    [consistency] (default [One_copy]) is the coherence mode of the
    instance's data and heap segments; the shared code segment always
    stays [One_copy]. *)

val delete_object : t -> ?on:Ra.Node.t -> Ra.Sysname.t -> unit
(** Remove the object: delete its segments, unregister it, and drop
    activations cluster-wide.  Deleting a missing object raises
    {!No_object}. *)

val invoke :
  t ->
  node:Ra.Node.t ->
  thread_id:int ->
  origin:int option ->
  txn:(int * int) option ->
  obj:Ra.Sysname.t ->
  entry:string ->
  Value.t ->
  Value.t
(** Execute an entry point on [node] (the object is demand-paged
    there).  Raises {!No_object}, {!No_entry}, or whatever the entry
    body raises. *)

val call : t -> Ra.Sysname.t -> string -> Value.t -> Value.t
(** [call t obj entry arg] is a top-level {!invoke}: thread 0, no
    origin, no transaction, on the compute server the scheduler
    picks. *)

val invoke_remote :
  t ->
  from:Ra.Node.t ->
  target:Net.Address.t ->
  thread_id:int ->
  origin:int option ->
  txn:(int * int) option ->
  obj:Ra.Sysname.t ->
  entry:string ->
  Value.t ->
  Value.t
(** Ship the invocation to another compute server (the paper's
    RPC-like case) and wait for the result.  Raises
    {!Ctx.Invoke_error} on remote failure.

    When [target] is [from]'s own address the transport is bypassed
    entirely — no serialization, fragmentation, or wire traffic; the
    invocation runs as a direct {!invoke} (counted by
    {!local_invocations}) and failures still surface as
    {!Ctx.Invoke_error} so the caller sees identical semantics. *)

val visited : t -> int -> Ra.Sysname.t list
(** Objects a thread has entered, most recent first (thread-manager
    bookkeeping). *)

val end_thread : t -> int -> unit
(** Release per-thread state (per-thread object memory, visit log). *)

val invocations : t -> int
(** Total entry-point executions performed through this manager. *)

val local_invocations : t -> int
(** Invocations dispatched through {!invoke_remote} that took the
    same-node bypass instead of a RaTP transaction. *)

val metrics : t -> (string * Obs.Registry.metric) list
(** Live metric handles under ["om/"] paths, for an {!Obs.Registry}. *)
