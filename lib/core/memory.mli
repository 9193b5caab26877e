(** An object's memory image, as seen by the code in the object.

    A Clouds object's address space contains persistent data
    segments, a persistent heap, and a volatile heap (Figure 1 of the
    paper).  This module is the typed access layer entry-point code
    uses; every access goes through the node's MMU, so it demand-pages
    through DSM, charges the calibrated costs, and triggers the
    atomicity layer's lock/recovery hooks. *)

type region =
  | Data  (** persistent instance data *)
  | Heap  (** persistent heap: allocations survive with the object *)
  | Volatile  (** volatile heap: per-activation scratch *)

type t

val make :
  mmu:Ra.Mmu.t ->
  vs:Ra.Virtual_space.t ->
  data_base:int ->
  data_len:int ->
  heap_base:int ->
  heap_len:int ->
  vheap_base:int ->
  vheap_len:int ->
  t

val region_size : t -> region -> int

val read : t -> ?region:region -> int -> len:int -> bytes
(** [read t off ~len]: raises [Invalid_argument] when the range
    exceeds the region. *)

val write : t -> ?region:region -> int -> bytes -> unit
(** [write t off data]. *)

val get_int : t -> ?region:region -> int -> int
(** 8-byte little-endian integer at byte offset. *)

val set_int : t -> ?region:region -> int -> int -> unit

val get_string : t -> ?region:region -> int -> string
(** Length-prefixed (4-byte) string at byte offset. *)

val set_string : t -> ?region:region -> int -> string -> unit
(** Stores 4-byte length + bytes; needs [4 + length] bytes of room. *)

val string_footprint : string -> int
(** Bytes {!set_string} occupies for this string. *)

val get_value : t -> ?region:region -> int -> Value.t
(** A {!Value.t} stored with {!set_value}. *)

val set_value : t -> ?region:region -> int -> Value.t -> unit
val value_footprint : Value.t -> int
