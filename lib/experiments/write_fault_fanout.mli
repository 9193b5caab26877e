(** Write-fault latency vs copyset size under concurrent fan-out.

    The coherence cost the paper's DSM pays on a write fault is one
    invalidation per read copy.  The data server issues them as one
    concurrent fan-out, so the whole copyset costs one round trip and
    any number of crashed (suspected) readers cost one RaTP timeout
    window, not one per suspect.

    The simulated cluster has one data server, [k] reader clients that
    fault the page in, and a separate writer whose write fault
    triggers the invalidation burst.  The suspect variant crashes two
    of the readers first (without telling the server). *)

type point = {
  copyset : int;  (** readers holding the page when the write faults *)
  suspects : int;  (** of which this many are crashed and will time out *)
  parallel_ms : float;  (** write-fault latency, concurrent fan-out *)
}

type result = {
  rtt_ms : float;  (** measured null RaTP round trip, for scale *)
  baseline_ms : float;  (** write fault with an empty copyset *)
  healthy : point list;  (** all readers alive *)
  suspected : point list;  (** two readers crashed (one when [k] = 1) *)
}

val run : ?sizes:int list -> unit -> result
(** Run every (size, health) combination in its own
    deterministic simulation.  [sizes] defaults to [[1; 4; 8; 16]]. *)


val to_json : result -> Obs.Export.json
