type t = {
  lock : Sim.Mutex.t;
  mutable last : int option;
  switches : Sim.Stats.counter;
  mutable active : int;
}

(* the preemption slice *)
let quantum = Sim.Time.ms 10

let create () =
  {
    lock = Sim.Mutex.create ~label:"cpu" ();
    last = None;
    switches = Sim.Stats.counter "cpu/switches";
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
        Sim.Stats.incr t.switches;
        Sim.sleep Params.context_switch
      end;
      t.last <- Some key;
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

let metrics t = [ Sim.Stats.Counter t.switches ]
let load t = t.active
