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

(* [pos] is the event's heap id while it waits in the timer heap,
   [in_ready] while it waits in the ready queue, or [gone] once it
   has fired or been cancelled. *)
and event = {
  mutable time : Time.t;
  mutable order : int;
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
  | Parked of parked

and parked = {
  owner : proc;
  k : (unit, unit) Effect.Deep.continuation;
  on_kill : unit -> bool;
}

and proc = {
  pid : int;
  name : string;
  group : int option;
  mutable alive : bool;
  mutable wait : wait;
  mutable on_term : (unit -> unit) list;
}

type timer = event

(* A group member that is not a process, on a list in pid order (a
   ring through a sentinel): [kill_group] merges it with the
   processes of its group. *)
type task = {
  tpid : int;
  tgroup : int option;
  hook : unit -> unit;
  mutable prev : task;
  mutable next : task;
}

let gone = -1
let in_ready = -2
let dummy = { time = min_int; order = 0; pos = gone; act = Nop }
let no_timer = dummy

(* The timer heap: 4-ary and indexed, with the keys out of the
   events.  Heap slot [i] holds its event's time, order and id at
   [tms.(i)], [ods.(i)] and [ids.(i)]; [evs] maps an id to its event
   and [slot] an id to its heap slot, or a free id to the next free
   one (the free ids form a stack).  A sift moves only ints, so it
   pays no write barrier and touches no event, and a node's four
   children have their times side by side; [evs] is written once when
   an event is pushed and once when it leaves.  The id is the event's
   [pos], so [cancel] finds any event's slot, not just the minimum's.
   A 4-ary heap is half as deep as a binary one. *)
module Heap = struct
  type t = {
    mutable tms : int array;
    mutable ods : int array;
    mutable ids : int array;
    mutable n : int;
    mutable evs : event array;
    mutable slot : int array;
    mutable free : int;  (* the top free id, or -1 *)
  }

  let create () =
    {
      tms = [||];
      ods = [||];
      ids = [||];
      n = 0;
      evs = [||];
      slot = [||];
      free = -1;
    }

  let grow h =
    let cap = Array.length h.evs in
    let cap' = if cap = 0 then 256 else 2 * cap in
    let extend a =
      let b = Array.make cap' 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    let evs = Array.make cap' dummy in
    Array.blit h.evs 0 evs 0 cap;
    h.tms <- extend h.tms;
    h.ods <- extend h.ods;
    h.ids <- extend h.ids;
    h.slot <- extend h.slot;
    h.evs <- evs;
    (* every id below [cap] is in use; the new ones go on the stack *)
    for j = cap to cap' - 2 do
      h.slot.(j) <- j + 1
    done;
    h.slot.(cap' - 1) <- -1;
    h.free <- cap

  let[@inline] before (t1 : int) (o1 : int) t2 o2 =
    t1 < t2 || (t1 = t2 && o1 < o2)

  (* Write the key (tm, ord, id) into slot [i]. *)
  let[@inline] place h i tm ord id =
    Array.unsafe_set h.tms i tm;
    Array.unsafe_set h.ods i ord;
    Array.unsafe_set h.ids i id;
    Array.unsafe_set h.slot id i

  (* Sift the key into the hole at [i]: parents it beats move down,
     children that beat it move up. *)
  let sift_up h i tm ord id =
    let tms = h.tms and ods = h.ods in
    let i = ref i in
    while
      !i > 0
      &&
      let p = (!i - 1) lsr 2 in
      before tm ord (Array.unsafe_get tms p) (Array.unsafe_get ods p)
    do
      let p = (!i - 1) lsr 2 in
      place h !i (Array.unsafe_get tms p) (Array.unsafe_get ods p)
        (Array.unsafe_get h.ids p);
      i := p
    done;
    place h !i tm ord id

  (* A child's order is read only when its time ties. *)
  let sift_down h i tm ord id =
    let tms = h.tms and ods = h.ods and n = h.n in
    let i = ref i and sifting = ref true in
    while !sifting do
      let first = (4 * !i) + 1 in
      if first >= n then sifting := false
      else begin
        let c = ref first and ct = ref (Array.unsafe_get tms first) in
        let last = if first + 3 < n then first + 3 else n - 1 in
        for j = first + 1 to last do
          let jt = Array.unsafe_get tms j in
          if
            jt < !ct
            || (jt = !ct && Array.unsafe_get ods j < Array.unsafe_get ods !c)
          then begin
            c := j;
            ct := jt
          end
        done;
        let co = Array.unsafe_get ods !c in
        if before !ct co tm ord then begin
          place h !i !ct co (Array.unsafe_get h.ids !c);
          i := !c
        end
        else sifting := false
      end
    done;
    place h !i tm ord id

  let push h ev =
    if h.free < 0 then grow h;
    let id = h.free in
    h.free <- h.slot.(id);
    h.evs.(id) <- ev;
    ev.pos <- id;
    let i = h.n in
    h.n <- i + 1;
    sift_up h i ev.time ev.order id

  (* Preconditions: not empty. *)
  let[@inline] top_time h = Array.unsafe_get h.tms 0
  let[@inline] top_order h = Array.unsafe_get h.ods 0

  (* Take out the event at slot [i]: the last key fills the hole and
     sifts whichever way restores the heap order. *)
  let remove_at h i =
    let id = h.ids.(i) in
    let ev = h.evs.(id) in
    h.evs.(id) <- dummy;
    let n = h.n - 1 in
    h.n <- n;
    if i < n then begin
      let tm = h.tms.(n) and ord = h.ods.(n) and lid = h.ids.(n) in
      if
        i > 0
        &&
        let p = (i - 1) lsr 2 in
        before tm ord h.tms.(p) h.ods.(p)
      then sift_up h i tm ord lid
      else sift_down h i tm ord lid
    end;
    h.slot.(id) <- h.free;
    h.free <- id;
    ev.pos <- gone;
    ev

  let remove h ev = ignore (remove_at h h.slot.(ev.pos))
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
module Pids = Int_table

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  heap : Heap.t;  (* events scheduled for a later instant *)
  ready : Ready.t;  (* events scheduled for the current instant *)
  procs : proc Pids.t;
  tasks : task;  (* the sentinel of the task ring *)
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

(* The kill hook and the registration of the park being performed,
   beside the effect for the same reason. *)
let park_hook = ref (fun () -> true)
let park_register : (parked -> unit) ref = ref ignore

type _ Effect.t +=
  | E_sleep : unit Effect.t  (* for [nap] *)
  | E_park : unit Effect.t  (* for [park_hook] and [park_register] *)
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

(* A record that has fired, or was cancelled from the heap, is in
   neither queue and can take a new key.  One cancelled from the ready
   queue still has a slot there (its [act] is [Nop]), and [dummy] is
   shared: both get a fresh record. *)
let retime t ev time thunk =
  if ev.pos <> gone || ev.act == Nop then timer t time thunk
  else begin
    (match ev.act with
    | Thunk f when f == thunk -> ()
    | _ -> ev.act <- Thunk thunk);
    t.seq <- t.seq + 1;
    ev.order <- t.seq;
    if time <= t.clock then begin
      ev.time <- t.clock;
      Ready.push t.ready ev
    end
    else begin
      ev.time <- time;
      Heap.push t.heap ev
    end;
    ev
  end

let cancel t ev =
  if ev.pos >= 0 then Heap.remove t.heap ev
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

let park proc on_kill register k =
  if not proc.alive then Effect.Deep.discontinue k Killed
  else begin
    let p = { owner = proc; k; on_kill } in
    proc.wait <- Parked p;
    register p
  end

(* One deep handler per engine runs every process.  Events always
   enter process code from engine context, never from inside another
   process, so at most one process executes at a time, and [t.cur]
   names the process the handler is serving.  A sleep's handler
   function is allocated once, and finds the span in [nap]. *)
let handler t =
  let on_sleep = Some (fun k -> sleep t t.cur !nap k) in
  let on_park = Some (fun k -> park t.cur !park_hook !park_register k) in
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
        | E_park -> on_park
        | E_suspend (_label, register) ->
            Some (fun k -> suspend t t.cur register k)
        | _ -> None);
  }

let new_ring () =
  let rec s = { tpid = 0; tgroup = None; hook = ignore; prev = s; next = s } in
  s

let create ?(seed = 42) () =
  let t =
    {
      clock = Time.zero;
      seq = 0;
      heap = Heap.create ();
      ready = Ready.create ();
      procs = Pids.create 64;
      tasks = new_ring ();
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
   RaTP's request handlers, load generators — can spawn
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

(* A task takes the next pid, as a spawn would, and joins the tail of
   the ring, which so stays in pid order.  It leaves when it retires
   or is killed; a task off the ring points at itself. *)
let task t ~group hook =
  let group = match group with Some _ as g -> g | None -> t.cur.group in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let last = t.tasks.prev in
  let rec k = { tpid = pid; tgroup = group; hook; prev = last; next = k } in
  k.next <- t.tasks;
  last.next <- k;
  t.tasks.prev <- k;
  k

let retire _ k =
  if k.next != k then begin
    k.prev.next <- k.next;
    k.next.prev <- k.prev;
    k.prev <- k;
    k.next <- k
  end

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
          schedule t (Abort (proc, k))
      | Parked p ->
          proc.wait <- Running;
          if p.on_kill () then schedule t (Abort (proc, p.k)))
  | Some _ | None -> ()

let resume t p =
  let proc = p.owner in
  let saved = t.cur in
  proc.wait <- Running;
  t.cur <- proc;
  if proc.alive then Effect.Deep.continue p.k ()
  else Effect.Deep.discontinue p.k Killed;
  t.cur <- saved

let kill_task t k =
  if k.next != k then begin
    retire t k;
    k.hook ()
  end

(* The group's processes and tasks, killed in pid order. *)
let kill_group t group =
  let procs =
    Pids.fold
      (fun pid proc acc -> if proc.group = Some group then pid :: acc else acc)
      t.procs []
    |> List.sort Int.compare
  in
  let rec tasks k acc =
    if k == t.tasks then List.rev acc
    else tasks k.next (if k.tgroup = Some group then k :: acc else acc)
  in
  let rec merge procs tasks =
    match (procs, tasks) with
    | pid :: ps, k :: _ when pid < k.tpid ->
        kill t pid;
        merge ps tasks
    | _, k :: ks ->
        kill_task t k;
        merge procs ks
    | ps, [] -> List.iter (kill t) ps
  in
  merge procs (tasks t.tasks.next [])

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
    else if
      h.Heap.n > 0
      && Heap.before (Heap.top_time h) (Heap.top_order h) r.time r.order
    then Heap.remove_at h 0
    else Ready.pop q
  else if h.Heap.n > 0 then begin
    let time = Heap.top_time h in
    if time > limit then begin
      t.clock <- limit;
      dummy
    end
    else begin
      if time > t.clock then t.clock <- time;
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

  let park on_kill register =
    park_hook := on_kill;
    park_register := register;
    Effect.perform E_park
  let suspend label register = Effect.perform (E_suspend (label, register))
  let spawn ?group name f = spawn (engine ()) ?group name f
end
