type consistency = S | Lcp | Gcp

type entry = {
  e_name : string;
  label : consistency;
  fn : Ctx.t -> Value.t -> Value.t;
}

type t = {
  c_name : string;
  code_pages : int;
  data_pages : int;
  heap_pages : int;
  vheap_pages : int;
  entries : entry list;
  constructor : (Ctx.t -> Value.t -> unit) option;
  daemons : (string * (Ctx.t -> unit)) list;
}

let define ?(code_pages = 3) ?(data_pages = 1) ?(heap_pages = 2)
    ?(vheap_pages = 2) ?constructor ?(daemons = []) ~name entries =
  if code_pages <= 0 || data_pages <= 0 || heap_pages <= 0 || vheap_pages <= 0
  then invalid_arg "Obj_class.define: page counts must be positive";
  let names = List.map (fun e -> e.e_name) entries in
  let distinct = List.sort_uniq String.compare names in
  if List.length distinct <> List.length names then
    invalid_arg "Obj_class.define: duplicate entry names";
  {
    c_name = name;
    code_pages;
    data_pages;
    heap_pages;
    vheap_pages;
    entries;
    constructor;
    daemons;
  }

let entry ?(label = S) e_name fn = { e_name; label; fn }

let find_entry t name =
  List.find_opt (fun e -> String.equal e.e_name name) t.entries
