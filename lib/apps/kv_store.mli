(** A persistent key-value store inside one Clouds object.

    Demonstrates structured persistent memory: a bucket array in the
    data segment and chained entries in the persistent heap — the
    paper's point that data can stay in memory "in a form controlled
    by the programs (e.g. lists, trees), even when not in use".
    Values are arbitrary {!Clouds.Value.t}s. *)

val register : Clouds.Object_manager.t -> unit
val create : Clouds.Object_manager.t -> Ra.Sysname.t

val put :
  Clouds.Object_manager.t -> Ra.Sysname.t -> string -> Clouds.Value.t -> unit
(** Insert or replace. *)

val put_durable :
  Clouds.Object_manager.t -> Ra.Sysname.t -> string -> Clouds.Value.t -> unit
(** Like {!put} but as a gcp transaction: committed to stable storage
    before returning. *)

val get :
  Clouds.Object_manager.t -> Ra.Sysname.t -> string -> Clouds.Value.t option

val delete : Clouds.Object_manager.t -> Ra.Sysname.t -> string -> bool
val count : Clouds.Object_manager.t -> Ra.Sysname.t -> int
val keys : Clouds.Object_manager.t -> Ra.Sysname.t -> string list
