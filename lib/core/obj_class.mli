(** Clouds classes.

    A class is a compiled program module: a template from which any
    number of object instances are created.  In the prototype,
    classes were written in CC++ or Distributed Eiffel and loaded
    onto a data server; here a class is defined with this embedded
    OCaml DSL, which exposes the same programming model — typed entry
    points with consistency labels over a persistent memory image.

    Entry points carry the consistency label of §5.2.1: [S] (standard
    thread semantics), [Lcp] (local consistency preserving) or [Gcp]
    (global consistency preserving). *)

type consistency = S | Lcp | Gcp

type entry = {
  e_name : string;
  label : consistency;
  fn : Ctx.t -> Value.t -> Value.t;
}

type t = {
  c_name : string;
  code_pages : int;  (** size of the shared code segment *)
  data_pages : int;  (** persistent data segment per instance *)
  heap_pages : int;  (** persistent heap per instance *)
  vheap_pages : int;  (** volatile heap per activation *)
  entries : entry list;
  constructor : (Ctx.t -> Value.t -> unit) option;
      (** runs once when an instance is created *)
  daemons : (string * (Ctx.t -> unit)) list;
      (** active-object processes: started when the object first
          activates, for housekeeping and monitoring (the paper's
          "objects can be active" box); they die with their machine *)
}

val define :
  ?code_pages:int ->
  ?data_pages:int ->
  ?heap_pages:int ->
  ?vheap_pages:int ->
  ?constructor:(Ctx.t -> Value.t -> unit) ->
  ?daemons:(string * (Ctx.t -> unit)) list ->
  name:string ->
  entry list ->
  t
(** Defaults: 3 code pages, 1 data page, 2 heap pages, 2 volatile
    pages — a small object in the spirit of the paper's examples. *)

val entry : ?label:consistency -> string -> (Ctx.t -> Value.t -> Value.t) -> entry
(** An entry point; the default label is [S]. *)

val find_entry : t -> string -> entry option
