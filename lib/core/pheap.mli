(** Heap allocators inside object memory.

    The paper gives each object a persistent heap (allocations become
    part of the object's persistent data) and a volatile heap
    (scratch that vanishes with the activation).  Both are instances
    of this allocator: a first-fit free list whose metadata lives
    {e inside} the managed region, so persistent-heap structure
    survives with the object's segments and is shared coherently
    through DSM.

    Block offsets returned by {!alloc} are plain integers relative to
    the region: they are meaningful only to code executing inside the
    object, which is exactly the paper's rule about addresses. *)

type t

val attach : Memory.t -> Memory.region -> t
(** Use the heap in the given region, initializing its header on
    first touch (detected by a magic word). *)

val alloc : t -> int -> int
(** [alloc t n] reserves [n] bytes ([n > 0]) and returns the offset
    of the block's payload.  Raises [Out_of_memory] when the region
    is exhausted. *)

val free : t -> int -> unit
(** Return a block (by its payload offset) to the free list.  Raises
    [Invalid_argument] on an offset that was not allocated. *)

val allocated_bytes : t -> int
(** Payload bytes currently allocated (excludes headers). *)
