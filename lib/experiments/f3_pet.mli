(** Experiment F3 — PET resilience vs resources (paper §5.2.2,
    Figure 5).

    A resilient computation over an object replicated on three data
    servers runs with 1, 2 or 3 parallel execution threads.  Each
    trial injects random dynamic failures (compute servers and data
    servers crashing mid-run).  More PETs buy a higher completion
    probability at the price of more thread time — the paper's
    resources/resilience trade-off.  The object has three replicas
    and a run commits on a quorum of two. *)

type point = {
  parallel : int;
  completion_rate : float;  (** share of trials that committed to a quorum *)
  mean_thread_ms : float;  (** resource cost per trial *)
}

type result = {
  trials : int;  (** per point, on the same failure schedules *)
  points : point list;
}

val run : ?trials:int -> ?parallel_counts:int list -> unit -> result

val to_json : result -> Obs.Export.json
