(** The execution context an entry point receives.

    This is the whole world visible to code inside a Clouds object:
    its own memory image (persistent data, persistent heap, volatile
    heap), heap allocators, synchronization, terminal I/O routed to
    the invoking user's workstation, nested invocation of other
    objects by sysname, and the three extra memory lifetimes the
    Clouds project added (per-object is the image itself;
    per-invocation and per-thread are value tables). *)

type t = {
  self : Ra.Sysname.t;  (** the object being executed *)
  node : Ra.Node.t;  (** compute server running this invocation *)
  thread_id : int;
  mem : Memory.t;
  pheap : unit -> Pheap.t;
      (** persistent-heap allocator, attached on first use (an object
          that never allocates never touches its heap header) *)
  invoke : obj:Ra.Sysname.t -> entry:string -> Value.t -> Value.t;
      (** nested synchronous invocation; raises {!Invoke_error} *)
  print : string -> unit;
      (** write a line to the user's terminal, wherever the thread
          runs *)
  compute : Sim.Time.span -> unit;  (** charge CPU work *)
  semaphore : string -> int -> Sim.Semaphore.t;
      (** named per-activation semaphore with an initial count (the
          system-supplied synchronization primitive) *)
  obj_mutex : string -> Sim.Mutex.t;  (** named per-activation lock *)
  per_invocation : (string, Value.t) Hashtbl.t;
      (** scratch living for this invocation only *)
  per_thread : (string, Value.t) Hashtbl.t;
      (** scratch shared by this thread's invocations of this object *)
  mutable txn : (int * int) option;
      (** consistency-preserving transaction token, threaded through
          nested and remote invocations by the atomicity layer *)
}

exception Invoke_error of string
(** A nested invocation failed (no such object/entry, remote error,
    unreachable server). *)
