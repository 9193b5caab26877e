(** Experiment T3 — object invocation cost (paper §4.3 ¶4).

    Paper figures: a null invocation costs at most 103 ms (object
    fetched cold from its data server) and at least 8 ms (object
    resident); locality makes the average cost much closer to the
    minimum. *)

type result = {
  warm_ms : float;  (** object resident on the invoking node *)
  cold_ms : float;  (** first activation: header + code over the net *)
  locality_avg_ms : float;
      (** average over a workload with 90% repeat invocations *)
}

val run : ?invocations:int -> unit -> result

val to_json : result -> Obs.Export.json
