(** Experiment T1 — kernel performance (paper §4.3 ¶2).

    Paper figures: context switch 0.14 ms; page-fault service for an
    8K page resident on the same node: 1.5 ms zero-filled, 0.629 ms
    non-zero-filled. *)

type result = {
  context_switch_ms : float;
  fault_zero_fill_ms : float;
  fault_data_ms : float;
  samples : int;
}

val run : ?samples:int -> unit -> result

val to_json : result -> Obs.Export.json
