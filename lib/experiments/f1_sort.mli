(** Experiment F1 — distributed programming over DSM (paper §5.1).

    A sort over data held in a single object, run as a distributed
    computation: worker threads on different compute servers sort
    ranges in parallel, the needed pages migrating automatically.
    The paper reports that speedup is achievable and that the
    experiments expose the computation/communication trade-off and
    the granularity that warrants distribution — which is exactly the
    shape of this series. *)

type point = {
  workers : int;
  total_ms : float;
  sort_ms : float;
  merge_ms : float;
  speedup : float;
  page_moves : int;
}

type result = { elements : int; points : point list }

val run : ?elements:int -> ?worker_counts:int list -> unit -> result

val to_json : result -> Obs.Export.json
