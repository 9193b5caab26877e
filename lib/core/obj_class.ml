type consistency = S | Lcp | Gcp

type entry = { label : consistency; fn : Ctx.t -> Value.t -> Value.t }

type t = {
  c_name : string;
  code_pages : int;
  data_pages : int;
  heap_pages : int;
  vheap_pages : int;
  entries : (string * entry) list;
  constructor : (Ctx.t -> Value.t -> unit) option;
  daemons : (string * (Ctx.t -> unit)) list;
}

let define ?(data_pages = 1) ?(heap_pages = 2) ?(vheap_pages = 2) ?constructor
    ?(daemons = []) ~name entries =
  if data_pages <= 0 || heap_pages <= 0 || vheap_pages <= 0 then
    invalid_arg "Obj_class.define: page counts must be positive";
  let names = List.map fst entries in
  let distinct = List.sort_uniq String.compare names in
  if List.length distinct <> List.length names then
    invalid_arg "Obj_class.define: duplicate entry names";
  {
    c_name = name;
    code_pages = 3;
    data_pages;
    heap_pages;
    vheap_pages;
    entries;
    constructor;
    daemons;
  }

let entry ?(label = S) name fn = (name, { label; fn })
let find_entry t name = List.assoc_opt name t.entries
