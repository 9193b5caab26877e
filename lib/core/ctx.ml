type t = {
  self : Ra.Sysname.t;
  node : Ra.Node.t;
  thread_id : int;
  mem : Memory.t;
  pheap : unit -> Pheap.t;
  invoke : obj:Ra.Sysname.t -> entry:string -> Value.t -> Value.t;
  print : string -> unit;
  compute : Sim.Time.span -> unit;
  semaphore : string -> int -> Sim.Semaphore.t;
  obj_mutex : string -> Sim.Mutex.t;
  per_invocation : (string, Value.t) Hashtbl.t;
  per_thread : (string, Value.t) Hashtbl.t;
  mutable txn : (int * int) option;
}

exception Invoke_error of string
