(** Files simulated by objects ("No Files? No Messages?" box).

    Clouds has no files; an object storing byte-sequential data with
    read and write entry points looks exactly like one.  Offsets and
    lengths are plain values; the bytes live in the object's
    persistent data segment. *)

val create : Clouds.Object_manager.t -> capacity:int -> Ra.Sysname.t

val size : Clouds.Object_manager.t -> Ra.Sysname.t -> int

val read :
  Clouds.Object_manager.t -> Ra.Sysname.t -> off:int -> len:int -> string
(** Reads are clamped to the current size. *)

val write :
  Clouds.Object_manager.t -> Ra.Sysname.t -> off:int -> string -> unit
(** Extends the file as needed (within capacity). *)

val append : Clouds.Object_manager.t -> Ra.Sysname.t -> string -> unit
val truncate : Clouds.Object_manager.t -> Ra.Sysname.t -> int -> unit
