type t = {
  lock : Sim.Mutex.t;
  cs_cost : Sim.Time.span;
  mutable last : int option;
  mutable switches : int;
  mutable busy : Sim.Time.span;
  mutable active : int;
}

(* the preemption slice *)
let quantum = Sim.Time.ms 10

let create ?context_switch () =
  let cs_cost =
    match context_switch with
    | Some c -> c
    | None -> Params.default.Params.context_switch
  in
  {
    lock = Sim.Mutex.create ~label:"cpu" ();
    cs_cost;
    last = None;
    switches = 0;
    busy = 0;
    active = 0;
  }

(* Work longer than a scheduling quantum is split so other
   schedulable entities interleave (preemptive round robin); the
   context-switch cost is charged only when occupancy actually passes
   to a different entity. *)
let rec consume_slices t ~key span =
  let this_slice = min span quantum in
  Sim.Mutex.with_lock t.lock (fun () ->
      let switching = match t.last with Some k -> k <> key | None -> true in
      if switching then begin
        t.switches <- t.switches + 1;
        t.busy <- t.busy + t.cs_cost;
        Sim.sleep t.cs_cost
      end;
      t.last <- Some key;
      t.busy <- t.busy + this_slice;
      if this_slice > 0 then Sim.sleep this_slice);
  let rest = span - this_slice in
  if rest > 0 then begin
    Sim.yield ();
    consume_slices t ~key rest
  end

let consume t ~key span =
  t.active <- t.active + 1;
  Fun.protect
    ~finally:(fun () -> t.active <- t.active - 1)
    (fun () -> consume_slices t ~key span)

let switches t = t.switches
let busy t = t.busy
let load t = t.active
