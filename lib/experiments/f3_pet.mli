(** Experiment F3 — PET resilience vs resources (paper §5.2.2,
    Figure 5).

    A resilient computation over an object replicated on three data
    servers runs with 1, 2 or 3 parallel execution threads.  Each
    trial injects random dynamic failures (compute servers and data
    servers crashing mid-run).  More PETs buy a higher completion
    probability at the price of more thread time — the paper's
    resources/resilience trade-off. *)

type point = {
  parallel : int;
  trials : int;
  completions : int;  (** trials that committed to a quorum *)
  completion_rate : float;
  mean_thread_ms : float;  (** resource cost per trial *)
}

type result = {
  replicas : int;
  quorum : int;
  points : point list;
}

val run : ?trials:int -> ?parallel_counts:int list -> unit -> result
val report : result -> string

val to_json : result -> Obs.Export.json
