(** Experiment F2 — the cost of consistency (paper §5.2.1).

    The same update runs as an s-thread (no locking, no recovery), an
    lcp-thread (local locks, batched update to the store) and a
    gcp-thread (global locks, write-ahead logged two-phase commit).
    The second part grows a global transaction across more objects —
    and hence more segments and more data servers — to expose the
    commit cost curve. *)

type mode_point = {
  mode : string;
  mean_ms : float;  (** latency of one deposit *)
  lock_rpcs : int;  (** global lock traffic caused *)
  lock_upgrades : int;  (** of which R-to-W upgrades *)
}

type result = {
  modes : mode_point list;
  spans : (int * float) list;
      (** (objects one transaction touches, mean latency in ms) *)
}

val run : ?samples:int -> unit -> result

val to_json : result -> Obs.Export.json
