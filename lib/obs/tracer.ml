(* Causal spans over the simulation.

   A tracer records a forest of named spans: each client invocation
   roots a trace, and every mechanism layer it touches (transport
   call, DSM fault, coherence fan-out, 2PC round) opens a child span
   under whatever span its process is currently inside.  Context is
   ambient — a table keyed by sim pid, the same discipline as
   [Atomicity.Manager]'s per-pid transaction table — so layers need
   no extra parameters.  Two explicit bridges carry context across
   the places where causality leaves the current process:

   - RPC: all simulated nodes live in one OCaml process, so a
     side-channel table keyed by the RaTP transaction id (origin,
     seq) links the client's call span to the server's handler
     process ([offer]/[accept]/[retract]); nothing is added to the
     wire format, so packet sizes and timing are untouched.
   - Fan-out: [Sim.Fanout] workers run under fresh pids; the caller
     captures [current ()] and re-binds it in each worker with
     [under].

   Tracing only ever reads the sim clock — it never sleeps, spawns
   or schedules — so an enabled tracer cannot perturb simulated
   results: traced and untraced runs of the same seed produce
   byte-identical metrics.  With no tracer installed every hook is
   one branch ([!active] match against [None]). *)

type span = {
  id : int; (* creation order, unique per tracer *)
  trace : int; (* trace (root-span family) id *)
  parent : int; (* parent span id, -1 for roots *)
  name : string;
  node : int; (* originating node address, -1 if unknown *)
  start : Sim.Time.t;
  mutable stop : Sim.Time.t; (* = start until finished *)
}

type t = {
  mutable spans : span array;
  mutable count : int;
  mutable next_trace : int;
  current : (Sim.Engine.pid, span) Hashtbl.t; (* innermost open span *)
  cross : (int * int, span) Hashtbl.t; (* rpc (origin, seq) -> caller *)
}

let create () =
  {
    spans = [||];
    count = 0;
    next_trace = 0;
    current = Hashtbl.create 64;
    cross = Hashtbl.create 64;
  }

(* The installed tracer; [None] (the default) disables every hook. *)
let active : t option ref = ref None

let install t = active := Some t
let uninstall () = active := None
let on () = !active <> None

let push tr sp =
  if tr.count = Array.length tr.spans then begin
    let grown = Array.make (max 256 (2 * tr.count)) sp in
    Array.blit tr.spans 0 grown 0 tr.count;
    tr.spans <- grown
  end;
  tr.spans.(tr.count) <- sp;
  tr.count <- tr.count + 1

type handle =
  | No_span
  | Started of { tr : t; sp : span; prev : span option; pid : Sim.Engine.pid }

let start ?(node = -1) name =
  match !active with
  | None -> No_span
  | Some tr ->
      let pid = Sim.self () in
      let prev = Hashtbl.find_opt tr.current pid in
      let trace, parent =
        match prev with
        | Some p -> (p.trace, p.id)
        | None ->
            let tid = tr.next_trace in
            tr.next_trace <- tid + 1;
            (tid, -1)
      in
      let now = Sim.now () in
      let sp =
        { id = tr.count; trace; parent; name; node; start = now; stop = now }
      in
      push tr sp;
      Hashtbl.replace tr.current pid sp;
      Started { tr; sp; prev; pid }

let finish = function
  | No_span -> ()
  | Started { tr; sp; prev; pid } ->
      sp.stop <- Sim.now ();
      (match prev with
      | Some p -> Hashtbl.replace tr.current pid p
      | None -> Hashtbl.remove tr.current pid)

let with_span ?node name f =
  match !active with
  | None -> f ()
  | Some _ ->
      let h = start ?node name in
      Fun.protect ~finally:(fun () -> finish h) f

let current () =
  match !active with
  | None -> None
  | Some tr -> Hashtbl.find_opt tr.current (Sim.self ())

let under ctx f =
  match (!active, ctx) with
  | Some tr, Some sp ->
      let pid = Sim.self () in
      let prev = Hashtbl.find_opt tr.current pid in
      Hashtbl.replace tr.current pid sp;
      Fun.protect f ~finally:(fun () ->
          match prev with
          | Some p -> Hashtbl.replace tr.current pid p
          | None -> Hashtbl.remove tr.current pid)
  | _ -> f ()

let fanout ~label xs ~f =
  let parent = current () in
  Sim.Fanout.map xs ~label ~f:(fun x -> under parent (fun () -> f x))

let offer ~origin ~seq =
  match !active with
  | None -> ()
  | Some tr -> (
      match Hashtbl.find_opt tr.current (Sim.self ()) with
      | Some sp -> Hashtbl.replace tr.cross (origin, seq) sp
      | None -> ())

let retract ~origin ~seq =
  match !active with
  | None -> ()
  | Some tr -> Hashtbl.remove tr.cross (origin, seq)

let accept ~origin ~seq f =
  match !active with
  | None -> f ()
  | Some tr -> under (Hashtbl.find_opt tr.cross (origin, seq)) f

let span_count t = t.count
let get t i = t.spans.(i)

let iter t f =
  for i = 0 to t.count - 1 do
    f t.spans.(i)
  done

let duration_ms sp = Sim.Time.(to_ms_f (diff sp.stop sp.start))
