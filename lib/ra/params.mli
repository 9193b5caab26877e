(** Kernel cost calibration.

    Every simulated cost in the Ra kernel is one of these constants,
    calibrated to the measurements in §4.3 of the paper (Sun-3/60
    class hardware): context switch 0.14 ms; local page fault
    0.629 ms for a data page and 1.5 ms for a zero-filled page; null
    object invocation about 8 ms warm. *)

val context_switch : Sim.Time.span
(** charged when the CPU switches between schedulable entities *)

val fault_trap : Sim.Time.span
(** fixed page-fault overhead: trap, table walk, map *)

val fault_copy : Sim.Time.span
(** copying one 8K page of available data into a frame *)

val fault_zero_fill : Sim.Time.span
(** zero-filling a fresh 8K frame *)

val activation_setup : Sim.Time.span
(** object manager: build the virtual space and object bookkeeping
    when an object first activates on a node *)

val invoke_setup : Sim.Time.span
(** object manager: map thread stack into the object space, locate
    the entry point, dispatch *)

val invoke_return : Sim.Time.span
(** unmap the stack and return to the calling object *)

val thread_create : Sim.Time.span
(** thread manager bookkeeping for a new thread *)

val name_lookup : Sim.Time.span
(** name-server processing per lookup, excluding transport *)
