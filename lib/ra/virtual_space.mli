(** Virtual spaces: Ra's addressing domains.

    A virtual space is a range of virtual addresses with holes; each
    contiguous mapped range is a window onto (a portion of) a
    segment.  Clouds builds an object's address space by mapping its
    code segment, persistent data segments, heaps and — per
    invocation — the thread's stack. *)

type prot = Read_only | Read_write

type mapping = {
  base : int;  (** first virtual address; page-aligned *)
  len : int;  (** bytes; page-aligned *)
  seg : Sysname.t;
  seg_off : int;  (** offset of the window within the segment *)
  prot : prot;
}

type t

val create : unit -> t

val map :
  t -> base:int -> len:int -> ?seg_off:int -> prot:prot -> Sysname.t -> unit
(** Add a mapping.  Raises [Invalid_argument] on overlap or
    misalignment. *)

val unmap : t -> base:int -> unit
(** Remove the mapping starting at [base].  Raises [Not_found] if
    there is none. *)

val translate : t -> int -> (mapping * int) option
(** [translate t addr] is the mapping containing [addr] together with
    the corresponding byte offset within the segment, or [None] for a
    hole. *)

val segments : t -> Sysname.t list
(** Distinct segments mapped, in first-mapped order. *)
