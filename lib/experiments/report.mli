(** The one text printer behind every experiment report.

    A report is its experiment's JSON value laid out as aligned text.
    A run of scalar members becomes a [quantity]/[measured] table, one
    row per member; members of a nested object are flattened into the
    same rows as [parent.member].  An array of objects becomes a table
    of its own: one column per member, one row per element, labelled
    by the element's [label], [arm] or [scenario] member, or by its
    index ([\[0\]]) when it has none.  Integer-valued numbers print as
    integers and other numbers to about three significant digits. *)

val render :
  title:string ->
  paper:(string * string) list ->
  host:(string * string) list ->
  Obs.Export.json ->
  string
(** [render ~title ~paper ~host json] prints [json] under a
    [== title ==] line.  [paper] maps a member name to the paper's
    figure for it: when non-empty, scalar tables gain a [paper]
    column and an array table with such a member gains a [paper] row
    under its header.  [host] maps a row label to a host-measured
    suffix (wall time, peak heap) printed after that row's cells;
    host figures never enter the JSON. *)
