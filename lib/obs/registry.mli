(** Per-node metrics registry.

    Unifies the [Sim.Stats] counters, keyed families and histograms
    scattered across components into one named tree: each
    component exposes its live handles as [(path, metric)] pairs, a
    registry per node collects them, and a snapshot renders the
    whole forest as deterministic JSON (sorted keys, fixed float
    format).  Registration is cheap and snapshot-time only reads —
    the hot paths keep bumping the same [Sim.Stats] values they
    always did.

    A component's [metrics] list is the only way to read its
    counters: {!count} and {!hist} look one path up in it. *)

type metric =
  | Counter of Sim.Stats.counter
  | Keyed of Sim.Stats.keyed
  | Hist of Sim.Stats.hist

type t

val create : string -> t
(** A registry labelled with its owner, e.g. ["data-3"]. *)

val register : t -> string -> metric -> unit
(** [register t path m] adds the metric at a slash-separated path,
    e.g. ["ratp/retrans"].  Raises [Invalid_argument] naming the path
    if [t] already holds it, so two components that publish the same
    path cannot silently drop one from every export. *)

val register_all : t -> (string * metric) list -> unit

val count : (string * metric) list -> string -> int
(** [count metrics path] is the value of the counter at [path] in a
    component's [metrics] list.  Raises [Invalid_argument] naming
    [path] if the list has no such path or it is not a counter. *)

val hist : (string * metric) list -> string -> Sim.Stats.hist
(** As {!count}, for the histogram at [path]. *)

val totals : t list -> (string * int) list
(** Integer metrics (counters; keyed families summed over keys)
    rolled up across registries by path, sorted — the cluster-wide
    view bench snapshots. *)

val snapshot_json : t list -> string
(** JSON array with one [{"node": label, "metrics": {path: value,
    ...}}] object per registry, in list order, paths sorted; counters
    render as integers, keyed families as objects, histograms as
    summary objects. *)
