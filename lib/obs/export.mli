(** Exports over a finished tracer.

    Deterministic renderings: Chrome trace-event JSON (Perfetto /
    chrome://tracing), a per-trace transport/fault/commit stage
    breakdown, a text critical-path report, and the one JSON printer,
    reader and differ behind every machine-readable output. *)

type stage = Transport | Fault | Commit | Other

val stage_of : string -> stage
(** Map a span name onto its mechanism layer: ["rpc"] is transport;
    DSM fault, coherence and page-serving spans are fault; locking
    and commit-protocol spans are commit; the rest (request/invoke
    envelopes, compute) are other. *)

type stages = {
  mutable transport_ms : float;
  mutable fault_ms : float;
  mutable commit_ms : float;
  mutable other_ms : float;
}

type trace_sum = {
  trace : int;
  root : string;  (** root span name *)
  total_ms : float;  (** root span duration *)
  mutable nspans : int;
  st : stages;  (** per-stage self time (duration minus children) *)
}

val per_trace : Tracer.t -> trace_sum list
(** One stage decomposition per trace, in trace-creation order.
    Self time clamps at 0 for parents of concurrent fan-out
    children, so the stage sums are a cost decomposition rather than
    a wall-clock partition. *)

val report : ?root:string -> Tracer.t -> string
(** Text critical-path report over traces rooted at [root] (default
    ["request"]): mean stage decomposition plus the actual traces at
    p50/p95/p99 of total latency. *)

type summary = {
  all_traces : int;  (** traces of any root *)
  traces : int;
  spans : int;
  mean : trace_sum;  (** per-stage means; trace id -1 *)
  p50 : trace_sum option;
  p95 : trace_sum option;
  p99 : trace_sum option;
}

val summarize : ?root:string -> Tracer.t -> summary
(** The report's numbers in machine-readable form. *)

val chrome_json : Tracer.t -> string
(** Chrome trace-event JSON: one complete ("X") event per span,
    ts/dur in microseconds, tid = trace id, pid = node address. *)

(** Minimal JSON values: every export is built as one. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** One line, [", "]/[": "] separators; integer-valued numbers print
    as integers, other finite ones as [%.6f], the rest as [null]. *)

val int : int -> json

val parse : string -> (json, string) result
(** Strict parse of one JSON document (non-ASCII [\u] escapes are
    replaced, not decoded). *)

val member : string -> json -> json option

val diff : json -> json -> string list
(** One ["path: old → new"], ["path: added"] or ["path: removed"]
    line per differing leaf (paths like [a.b[0].c]); members match by
    key and numbers compare as {!to_string} prints them. *)

val validate_chrome : string -> (int, string) result
(** Check a string is valid JSON with a non-empty [traceEvents]
    array of well-formed complete events; returns the event count. *)
