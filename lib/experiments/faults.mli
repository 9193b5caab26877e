(** Named, reproducible fault-injection scenarios.

    Each scenario boots a fresh simulated system, installs a fault
    plan through {!Net.Fault} (loss profiles, scripted filters, timed
    partitions, scheduled node crash/restart), drives a workload, and
    checks the recovery invariants: committed data survives, handler
    effects are at-most-once per transaction id, every call completes
    or times out, and retransmission counters line up with the
    injected loss.

    Outcomes are pure functions of (scenario, seed): running a
    scenario twice with the same seed yields identical statistics and
    trace, which the test suite asserts. *)

type outcome
(** One scenario's counters (calls, completions, timeouts, aborts,
    commits, retransmissions, drops, duplicates), its invariant
    violations and its canonical per-call trace; {!to_json} prints
    every field.  Two outcomes compare equal with [=] exactly when
    every field does. *)

val scenarios : string list
(** The scenario names, in execution order: fragment-loss,
    reply-loss, ack-loss, burst-loss, jitter-dup-reorder,
    mid-call-partition, server-crash-restart, mid-commit-partition
    (bank over 2PC), pet-crash-quorum. *)

val run : ?seed:int -> string -> outcome
(** Run one scenario (default seed 42).  Raises [Invalid_argument]
    for an unknown name. *)

val run_all : ?seed:int -> unit -> outcome list
(** Run every scenario. *)

val violations : outcome -> string list
(** Empty iff every invariant held. *)

val to_json : outcome list -> Obs.Export.json
(** Every field of every outcome, one ["scenarios"] element each, for
    the text report (the bench pins no faults section). *)
