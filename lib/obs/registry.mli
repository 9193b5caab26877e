(** Per-node metrics registry.

    Unifies the [Sim.Stats] counters, keyed families and histograms
    scattered across components into one named tree: each
    component exposes its live handles as a [Sim.Stats.metric list],
    each handle named by its slash-separated path
    ({!Sim.Stats.name}, e.g. ["ratp/retrans"]), a registry per node
    collects them, and a snapshot renders the whole forest as
    deterministic JSON (sorted keys, fixed float format).  Building
    one is cheap and a snapshot only reads — the hot paths keep
    bumping the same [Sim.Stats] values they always did.

    A component's [metrics] list is the only way to read its
    counters: {!count} and {!hist} look one path up in it. *)

type t

val make : string -> Sim.Stats.metric list -> t
(** [make label metrics] is the registry of one owner, e.g.
    ["data-3"], holding every handle at its path.  Raises
    [Invalid_argument] naming a path the list holds twice, so two
    components that publish the same path cannot silently drop one
    from every export. *)

val count : Sim.Stats.metric list -> string -> int
(** [count metrics path] is the value of the counter at [path] in a
    component's [metrics] list.  Raises [Invalid_argument] naming
    [path] if the list has no such path or it is not a counter. *)

val hist : Sim.Stats.metric list -> string -> Sim.Stats.hist
(** As {!count}, for the histogram at [path]. *)

val totals : t list -> (string * int) list
(** Counters rolled up across registries by path, sorted — the
    cluster-wide view bench snapshots.  Keyed families and histograms
    are left out: a family is a per-peer split of a counter already
    rolled up, or a gauge whose sum means nothing. *)

val snapshot_json : t list -> string
(** JSON array with one [{"node": label, "metrics": {path: value,
    ...}}] object per registry, in list order, paths sorted; counters
    render as integers, keyed families as objects, histograms as
    unit-free [n]/[mean]/[p50]/[p95]/[p99]/[max] objects (a time
    histogram names its unit in its path). *)
