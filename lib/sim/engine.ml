type pid = int

exception Killed

(* What a scheduled event does when it fires.  A resumption carries
   its continuation and value, so a sleep or a wake allocates one
   event and no closure. *)
type action =
  | Nop  (* a cancelled ready-queue event *)
  | Thunk of (unit -> unit)
  | Start of proc * (unit -> unit)
  | Resume : proc * ('a, unit) Effect.Deep.continuation * 'a -> action
  | Abort : proc * ('a, unit) Effect.Deep.continuation -> action

(* [pos] is the event's heap slot, [in_ready] while it waits in the
   ready queue, or [gone] once it has fired or been cancelled. *)
and event = {
  time : Time.t;
  order : int;
  mutable pos : int;
  mutable act : action;
}

(* Where a process is parked: what [kill] has to undo.  [Running]
   also covers a process not started yet and one woken but not
   resumed yet: neither has anything to cancel. *)
and wait =
  | Running
  | Sleeping of event  (* its [Resume] event *)
  | Suspended : ('a, unit) Effect.Deep.continuation -> wait

and proc = {
  pid : int;
  name : string;
  group : int option;
  mutable alive : bool;
  mutable wait : wait;
  mutable on_term : (unit -> unit) list;
}

type timer = event

let gone = -1
let in_ready = -2
let dummy = { time = min_int; order = 0; pos = gone; act = Nop }

(* The timer heap: 4-ary and indexed.  Every move records the
   event's slot in [pos] so [remove_at] can take out any event, not
   just the minimum.  Vacated slots are overwritten with [dummy] so
   removed event closures stay collectable.  A 4-ary heap is half as
   deep as a binary one, so a sift moves an event (a write barrier
   and a [pos] store) half as often for the same comparisons. *)
module Heap = struct
  type t = { mutable arr : event array; mutable n : int }

  let create () = { arr = [||]; n = 0 }

  let[@inline] before a b =
    a.time < b.time || (a.time = b.time && a.order < b.order)

  let[@inline] place arr i ev =
    arr.(i) <- ev;
    ev.pos <- i

  (* Sift [ev] into the hole at [i]: parents it beats move down,
     children that beat it move up. *)
  let sift_up arr i ev =
    let i = ref i in
    while !i > 0 && before ev arr.((!i - 1) lsr 2) do
      let p = (!i - 1) lsr 2 in
      place arr !i arr.(p);
      i := p
    done;
    place arr !i ev

  let sift_down arr n i ev =
    let i = ref i and sifting = ref true in
    while !sifting do
      let first = (4 * !i) + 1 in
      if first >= n then sifting := false
      else begin
        let c = ref first and least = ref arr.(first) in
        let last = if first + 3 < n then first + 3 else n - 1 in
        for j = first + 1 to last do
          let x = arr.(j) in
          if before x !least then begin
            c := j;
            least := x
          end
        done;
        if before !least ev then begin
          place arr !i !least;
          i := !c
        end
        else sifting := false
      end
    done;
    place arr !i ev

  let push h ev =
    let cap = Array.length h.arr in
    if h.n >= cap then begin
      let arr = Array.make (if cap = 0 then 256 else 2 * cap) dummy in
      Array.blit h.arr 0 arr 0 h.n;
      h.arr <- arr
    end;
    let i = h.n in
    h.n <- i + 1;
    sift_up h.arr i ev

  (* Precondition: not empty. *)
  let[@inline] top h = h.arr.(0)

  (* Take out the event at slot [i]: the last event fills the hole
     and sifts whichever way restores the heap order. *)
  let remove_at h i =
    let arr = h.arr in
    let ev = arr.(i) in
    let n = h.n - 1 in
    h.n <- n;
    let last = arr.(n) in
    arr.(n) <- dummy;
    if i < n then
      if i > 0 && before last arr.((i - 1) lsr 2) then sift_up arr i last
      else sift_down arr n i last;
    ev.pos <- gone;
    ev
end

(* The ready queue: events due at the current instant, in scheduling
   order, in a ring buffer.  A cancelled entry stays in its slot as
   [Nop] until it reaches the head. *)
module Ready = struct
  type t = {
    mutable evs : event array;
    mutable head : int;
    mutable len : int;  (* slots in use, cancelled ones included *)
    mutable live : int;
  }

  let create () = { evs = Array.make 256 dummy; head = 0; len = 0; live = 0 }

  let push q ev =
    let cap = Array.length q.evs in
    if q.len = cap then begin
      let evs = Array.make (2 * cap) dummy in
      for j = 0 to q.len - 1 do
        evs.(j) <- q.evs.((q.head + j) land (cap - 1))
      done;
      q.evs <- evs;
      q.head <- 0
    end;
    q.evs.((q.head + q.len) land (Array.length q.evs - 1)) <- ev;
    q.len <- q.len + 1;
    q.live <- q.live + 1;
    ev.pos <- in_ready

  let drop_head q =
    q.evs.(q.head) <- dummy;
    q.head <- (q.head + 1) land (Array.length q.evs - 1);
    q.len <- q.len - 1

  (* Skip cancelled entries: the live head, or [dummy] if none. *)
  let rec head q =
    if q.len = 0 then dummy
    else
      let ev = q.evs.(q.head) in
      if ev.pos = in_ready then ev
      else begin
        drop_head q;
        head q
      end

  (* Precondition: [head q] is live. *)
  let pop q =
    let ev = q.evs.(q.head) in
    drop_head q;
    q.live <- q.live - 1;
    ev.pos <- gone;
    ev

  let cancel q ev =
    ev.pos <- gone;
    ev.act <- Nop;
    q.live <- q.live - 1
end

(* Pids are handed out in sequence, so they are their own hash. *)
module Pids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash pid = pid
end)

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  heap : Heap.t;  (* events scheduled for a later instant *)
  ready : Ready.t;  (* events scheduled for the current instant *)
  procs : proc Pids.t;
  mutable next_pid : int;
  (* the process currently executing, or [no_proc]: set around every
     entry into process code (start and each resumption) so the one
     handler, spawn and self find it without an effect round-trip *)
  mutable cur : proc;
  mutable handler : (unit, unit) Effect.Deep.handler;
  root_rng : Rng.t;
}

let no_proc =
  {
    pid = 0;
    name = "";
    group = None;
    alive = false;
    wait = Running;
    on_term = [];
  }

(* The span of the sleep being performed.  It travels beside the
   effect rather than in it, so a sleep allocates no effect value: the
   handler that catches [E_sleep] reads it before any other code runs,
   whichever engine that handler belongs to. *)
let nap = ref 0

type _ Effect.t +=
  | E_sleep : unit Effect.t  (* for [nap] *)
  | E_suspend : string * (('a -> bool) -> unit) -> 'a Effect.t

let now t = t.clock
let rng t = t.root_rng
let pending t = t.heap.Heap.n + t.ready.Ready.live

(* Every event takes the next sequence number, and an event due now
   (or in the past) joins the ready queue behind the others due now.
   The heap holds only events after the current instant, and the
   clock moves only to the heap's minimum, which [next] takes only
   once the ready queue is empty: so a ready event's time is always
   the clock, and every heap event at the clock's instant was
   scheduled before the clock reached it, ahead of every ready
   event. *)
let schedule_at t time act =
  t.seq <- t.seq + 1;
  let now = time <= t.clock in
  let ev =
    { time = (if now then t.clock else time); order = t.seq; pos = gone; act }
  in
  if now then Ready.push t.ready ev else Heap.push t.heap ev;
  ev

let schedule t act = ignore (schedule_at t t.clock act)
let timer t time thunk = schedule_at t time (Thunk thunk)

let cancel t ev =
  if ev.pos >= 0 then ignore (Heap.remove_at t.heap ev.pos)
  else if ev.pos = in_ready then Ready.cancel t.ready ev

let at t time thunk = ignore (timer t time thunk)

let finish t proc =
  Pids.remove t.procs proc.pid;
  let callbacks = proc.on_term in
  proc.on_term <- [];
  List.iter (fun f -> f ()) (List.rev callbacks)

(* The handler's two suspensions.  Both run in the context of the
   [continue] that last entered the process, with [t.cur] = [proc]. *)
let sleep t proc span k =
  if not proc.alive then Effect.Deep.discontinue k Killed
  else
    proc.wait <-
      Sleeping (schedule_at t (Time.add t.clock span) (Resume (proc, k, ())))

(* [w] is this suspension's identity: a wake finds it in [proc.wait]
   only until the first wake or a kill replaces it. *)
let suspend t proc register k =
  if not proc.alive then Effect.Deep.discontinue k Killed
  else begin
    let w = Suspended k in
    proc.wait <- w;
    register (fun v ->
        proc.wait == w
        && begin
             proc.wait <- Running;
             schedule t (Resume (proc, k, v));
             true
           end)
  end

(* One deep handler per engine runs every process.  Events always
   enter process code from engine context, never from inside another
   process, so at most one process executes at a time, and [t.cur]
   names the process the handler is serving.  A sleep's handler
   function is allocated once, and finds the span in [nap]. *)
let handler t =
  let on_sleep = Some (fun k -> sleep t t.cur !nap k) in
  {
    Effect.Deep.retc = (fun () -> finish t t.cur);
    exnc =
      (fun e ->
        finish t t.cur;
        match e with Killed -> () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | E_sleep -> on_sleep
        | E_suspend (_label, register) ->
            Some (fun k -> suspend t t.cur register k)
        | _ -> None);
  }

let create ?(seed = 42) () =
  let t =
    {
      clock = Time.zero;
      seq = 0;
      heap = Heap.create ();
      ready = Ready.create ();
      procs = Pids.create 64;
      next_pid = 1;
      cur = no_proc;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      root_rng = Rng.create ~seed;
    }
  in
  t.handler <- handler t;
  t

let fire t ev =
  match ev.act with
  | Nop -> ()
  | Thunk f -> f ()
  | Start (proc, f) ->
      if proc.alive then begin
        t.cur <- proc;
        Effect.Deep.match_with f () t.handler;
        t.cur <- no_proc
      end
      else finish t proc
  | Resume (proc, k, v) ->
      proc.wait <- Running;
      t.cur <- proc;
      Effect.Deep.continue k v;
      t.cur <- no_proc
  | Abort (proc, k) ->
      t.cur <- proc;
      Effect.Deep.discontinue k Killed;
      t.cur <- no_proc

(* [spawn] is an ordinary function call: a process spawning a sibling
   pays no effect round-trip, and callers that hold the engine —
   packet delivery, RaTP tx loops, load generators — can spawn
   straight from engine context.  Group inheritance follows the
   spawner when one is executing. *)
let spawn t ?group name f =
  let group = match group with Some _ as g -> g | None -> t.cur.group in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let proc = { pid; name; group; alive = true; wait = Running; on_term = [] } in
  Pids.replace t.procs pid proc;
  schedule t (Start (proc, f));
  pid

let kill t pid =
  match Pids.find_opt t.procs pid with
  | Some proc when proc.alive -> (
      proc.alive <- false;
      match proc.wait with
      | Running -> ()
      | Sleeping ({ act = Resume (_, k, _); _ } as ev) ->
          proc.wait <- Running;
          cancel t ev;
          schedule t (Abort (proc, k))
      | Sleeping _ -> assert false
      | Suspended k ->
          proc.wait <- Running;
          schedule t (Abort (proc, k)))
  | Some _ | None -> ()

let kill_group t group =
  let victims =
    Pids.fold
      (fun pid proc acc -> if proc.group = Some group then pid :: acc else acc)
      t.procs []
  in
  List.iter (kill t) (List.sort Int.compare victims)

let on_terminate t pid f =
  match Pids.find_opt t.procs pid with
  | Some proc -> proc.on_term <- f :: proc.on_term
  | None -> f ()

let alive t pid =
  match Pids.find_opt t.procs pid with
  | None -> false
  | Some proc -> proc.alive

let procs t =
  Pids.fold
    (fun pid proc acc -> if proc.alive then (pid, proc.name) :: acc else acc)
    t.procs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The engine whose [run] or [step] is executing.  Only one process
   executes at a time, so this plus [t.cur] names the running process
   without an effect round-trip.  Each entry saves and restores it, so
   an engine driven from inside another engine's process is current
   only while it runs. *)
let running : t option ref = ref None

let with_running t f =
  let saved = !running in
  running := Some t;
  match f t with
  | v ->
      running := saved;
      v
  | exception e ->
      running := saved;
      raise e

(* Take the next event in (time, order), advancing the clock to it,
   or return [dummy] if there is none at or before [limit]; then the
   clock moves to [limit] unless the queue is empty.  While the ready
   queue is not empty the next event is due at the clock, and a heap
   event precedes the ready head only at that instant with a smaller
   order (see [schedule_at]). *)
let next t limit =
  let h = t.heap and q = t.ready in
  let r = Ready.head q in
  if r != dummy then
    if t.clock > limit then begin
      (* [run ~until] in the past: the clock goes back to [limit], so
         the ready events, still due at the old clock, wait in the
         heap instead *)
      while Ready.head q != dummy do
        Heap.push h (Ready.pop q)
      done;
      t.clock <- limit;
      dummy
    end
    else if h.Heap.n > 0 && Heap.before (Heap.top h) r then Heap.remove_at h 0
    else Ready.pop q
  else if h.Heap.n > 0 then begin
    let ev = Heap.top h in
    if ev.time > limit then begin
      t.clock <- limit;
      dummy
    end
    else begin
      if ev.time > t.clock then t.clock <- ev.time;
      Heap.remove_at h 0
    end
  end
  else dummy

let step t =
  with_running t (fun t ->
      let ev = next t max_int in
      ev != dummy
      && begin
           fire t ev;
           true
         end)

(* The drain loop allocates nothing per event: at a million-event
   load run this loop and the heap sifts are the whole simulator. *)
let run ?until t =
  let limit = match until with Some u -> u | None -> max_int in
  with_running t (fun t ->
      let ev = ref (next t limit) in
      while !ev != dummy do
        fire t !ev;
        ev := next t limit
      done)

module Process = struct
  let outside () = invalid_arg "Sim: process operation outside a process"

  let engine () =
    match !running with
    | Some t when t.cur != no_proc -> t
    | Some _ | None -> outside ()

  let now () = (engine ()).clock
  let self () = (engine ()).cur.pid
  let sleep span =
    nap := span;
    Effect.perform E_sleep

  let yield () = sleep 0
  let suspend label register = Effect.perform (E_suspend (label, register))
  let spawn ?group name f = spawn (engine ()) ?group name f
end
