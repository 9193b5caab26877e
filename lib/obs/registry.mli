(** Per-node metrics registry.

    Unifies the [Sim.Stats] counters, keyed families and histograms
    scattered across components into one named tree: each
    component exposes its live handles as [(path, metric)] pairs, a
    registry per node collects them, and a snapshot renders the
    whole forest as deterministic JSON (sorted keys, fixed float
    format).  Registration is cheap and snapshot-time only reads —
    the hot paths keep bumping the same [Sim.Stats] values they
    always did. *)

type metric =
  | Counter of Sim.Stats.counter
  | Keyed of Sim.Stats.keyed
  | Hist of Sim.Stats.hist

type t

val create : string -> t
(** A registry labelled with its owner, e.g. ["data-3"]. *)

val register : t -> string -> metric -> unit
(** [register t path m] adds (or replaces) the metric at a
    slash-separated path, e.g. ["ratp/retrans"]. *)

val register_all : t -> (string * metric) list -> unit

val items : t -> (string * metric) list
(** All (path, metric) pairs sorted by path. *)

val totals : t list -> (string * int) list
(** Integer metrics (counters; keyed families summed over keys)
    rolled up across registries by path, sorted — the cluster-wide
    view bench snapshots. *)

val snapshot_json : t list -> string
(** JSON array with one [{"node": label, "metrics": {path: value,
    ...}}] object per registry, in list order, paths sorted; counters
    render as integers, keyed families as objects, histograms as
    summary objects. *)
