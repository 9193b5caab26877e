(** Measurement collection for experiments.

    A [series] accumulates scalar samples (typically durations in
    milliseconds) and reports summary statistics.  A [counter] counts
    discrete events (page faults, messages, retransmissions). *)

type series

val series : string -> series
(** A fresh, empty series with a display name. *)

val add : series -> float -> unit
(** Record one sample. *)

val add_span : series -> Time.span -> unit
(** Record a duration sample, converted to milliseconds. *)

val n : series -> int

val mean : series -> float
(** 0.0 on an empty series. *)

val min_v : series -> float
(** Smallest sample; 0.0 on an empty series (never [infinity], which
    would serialize as invalid JSON). *)

val max_v : series -> float
(** Largest sample; 0.0 on an empty series (never [neg_infinity]). *)

val total : series -> float

val percentile : series -> float -> float
(** [percentile s p] with [p] in [0,100]; linear interpolation on the
    sorted samples.  0.0 on an empty series, like [mean]. *)

val stddev : series -> float

val name : series -> string

type counter

val counter : string -> counter
val incr : counter -> unit
val incr_by : counter -> int -> unit
val value : counter -> int

type keyed
(** A family of counters keyed by a small integer key — typically a
    peer address, so per-destination costs (retransmissions, NACKs,
    timeout estimates) can be attributed to the peer that caused
    them. *)

val keyed : string -> keyed
(** A fresh, empty keyed counter family with a display name. *)

val kincr : keyed -> int -> unit
val kset : keyed -> int -> int -> unit
(** [kset k key v] overwrites the value for [key] (used for gauges
    such as a current timeout estimate, rather than event counts). *)

val kvalue : keyed -> int -> int
(** 0 for a key never touched. *)

val kitems : keyed -> (int * int) list
(** All (key, value) pairs, sorted by key (deterministic). *)

type hist
(** A streaming histogram: HDR-style logarithmic buckets over
    non-negative samples.  O(1) memory regardless of stream length
    (one fixed bucket array), exact count/sum/min/max, and any
    percentile within 1% relative error of the exact sorted-series
    answer.  Use it where a [series] would hold millions of
    samples. *)

val hist : string -> hist
(** A fresh, empty histogram with a display name. *)

val hadd : hist -> float -> unit
(** Record one sample.  Negative or zero samples land in the lowest
    bucket (min/max stay exact). *)

val hadd_span : hist -> Time.span -> unit
(** Record a duration sample, converted to milliseconds. *)

val hist_n : hist -> int
val hist_total : hist -> float

val hist_mean : hist -> float
(** Exact (tracked sum / count); 0.0 on an empty histogram. *)

val hist_min : hist -> float
(** Exact smallest sample; 0.0 on an empty histogram. *)

val hist_max : hist -> float
(** Exact largest sample; 0.0 on an empty histogram. *)

val hist_percentile : hist -> float -> float
(** [hist_percentile h p] with [p] in [0,100]: the geometric midpoint
    of the bucket holding the rank-[p] sample (same rank convention
    as {!percentile}), clamped into [[min, max]]; ≤1% relative error
    vs the exact series.  0.0 on an empty histogram. *)
