type pid = int

exception Killed

type proc = {
  pid : int;
  name : string;
  group : int option;
  mutable alive : bool;
  mutable cancel : (unit -> unit) option;
  mutable on_term : (unit -> unit) list;
}

type event = {
  time : Time.t;
  order : int;
  mutable pos : int;  (* heap slot, or -1 once fired or cancelled *)
  thunk : unit -> unit;
}

type timer = event

(* The event queue is an indexed binary heap specialized to events:
   the (time, order) comparison is two inline int compares instead of
   a call through a comparator closure, the hot operations return
   events directly (guarded by [is_empty]) rather than allocating an
   option per peek/pop, and every move records the event's slot in
   [pos] so [remove_at] can take out any event, not just the minimum.
   Vacated slots are overwritten with a shared dummy so removed event
   closures stay collectable. *)
module Evq = struct
  let dummy = { time = min_int; order = 0; pos = -1; thunk = ignore }

  type t = { mutable arr : event array; mutable n : int }

  let create () = { arr = [||]; n = 0 }
  let length q = q.n
  let is_empty q = q.n = 0

  let[@inline] before a b =
    a.time < b.time || (a.time = b.time && a.order < b.order)

  let[@inline] place arr i ev =
    arr.(i) <- ev;
    ev.pos <- i

  (* Sift [ev] into the hole at [i]: parents that [ev] beats move
     down, children that beat [ev] move up. *)
  let sift_up arr i ev =
    let i = ref i in
    let sifting = ref true in
    while !sifting && !i > 0 do
      let parent = (!i - 1) / 2 in
      let p = arr.(parent) in
      if before ev p then begin
        place arr !i p;
        i := parent
      end
      else sifting := false
    done;
    place arr !i ev

  let sift_down arr n i ev =
    let i = ref i in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && before arr.(l + 1) arr.(l) then l + 1 else l in
        let child = arr.(c) in
        if before child ev then begin
          place arr !i child;
          i := c
        end
        else sifting := false
      end
    done;
    place arr !i ev

  let push q ev =
    let cap = Array.length q.arr in
    if q.n >= cap then begin
      let arr = Array.make (if cap = 0 then 256 else 2 * cap) dummy in
      Array.blit q.arr 0 arr 0 q.n;
      q.arr <- arr
    end;
    let i = q.n in
    q.n <- i + 1;
    sift_up q.arr i ev

  (* Precondition for [min_elt] and [pop]: not empty. *)
  let min_elt q = q.arr.(0)

  (* Take out the event at slot [i]: the last event fills the hole
     and sifts whichever way restores the heap order. *)
  let remove_at q i =
    let arr = q.arr in
    let ev = arr.(i) in
    let n = q.n - 1 in
    q.n <- n;
    let last = arr.(n) in
    arr.(n) <- dummy;
    if i < n then
      if i > 0 && before last arr.((i - 1) / 2) then sift_up arr i last
      else sift_down arr n i last;
    ev.pos <- -1;
    ev

  let pop q = remove_at q 0
end

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  events : Evq.t;
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  (* the process currently executing, if any: set around every entry
     into process code (initial run and each continuation resume) so
     spawn/self need no dedicated effect round-trip *)
  mutable cur : proc option;
  root_rng : Rng.t;
}

type _ Effect.t +=
  | E_sleep : Time.span -> unit Effect.t
  | E_suspend : string * (('a -> bool) -> unit) -> 'a Effect.t

let create ?(seed = 42) () =
  {
    clock = Time.zero;
    seq = 0;
    events = Evq.create ();
    procs = Hashtbl.create 64;
    next_pid = 1;
    cur = None;
    root_rng = Rng.create ~seed;
  }

let now t = t.clock
let rng t = t.root_rng
let pending t = Evq.length t.events

let timer t time thunk =
  t.seq <- t.seq + 1;
  let time = if time < t.clock then t.clock else time in
  let ev = { time; order = t.seq; pos = -1; thunk } in
  Evq.push t.events ev;
  ev

let cancel t ev = if ev.pos >= 0 then ignore (Evq.remove_at t.events ev.pos)
let at t time thunk = ignore (timer t time thunk)
let schedule t thunk = at t t.clock thunk

let finish t proc =
  Hashtbl.remove t.procs proc.pid;
  let callbacks = proc.on_term in
  proc.on_term <- [];
  List.iter (fun f -> f ()) (List.rev callbacks)

(* Each process runs under its own deep handler.  Wakers and timers
   always resume continuations from engine context (either directly
   inside an event thunk, or by scheduling a fresh event), never from
   inside another process, so at most one process executes at a time
   — which is what lets [t.cur] stand in for the old E_self/E_spawn
   effects: it is set around every entry into process code and
   cleared when control returns to the engine. *)
let rec run_proc : t -> proc -> (unit -> unit) -> unit =
 fun t proc f ->
  let open Effect.Deep in
  t.cur <- Some proc;
  (match_with f ()
     {
       retc = (fun () -> finish t proc);
       exnc =
         (fun e ->
           finish t proc;
           match e with
           | Killed -> ()
           | e -> raise e);
       effc =
         (fun (type a) (eff : a Effect.t) ->
           match eff with
           | E_sleep span ->
               Some
                 (fun (k : (a, _) continuation) ->
                   if not proc.alive then discontinue k Killed
                   else begin
                     let wakeup =
                       timer t (Time.add t.clock span) (fun () ->
                           proc.cancel <- None;
                           t.cur <- Some proc;
                           continue k ();
                           t.cur <- None)
                     in
                     proc.cancel <-
                       Some
                         (fun () ->
                           cancel t wakeup;
                           schedule t (fun () ->
                               t.cur <- Some proc;
                               discontinue k Killed;
                               t.cur <- None))
                   end)
           | E_suspend (_label, register) ->
               Some
                 (fun (k : (a, _) continuation) ->
                   if not proc.alive then discontinue k Killed
                   else begin
                     let state = ref `Waiting in
                     proc.cancel <-
                       Some
                         (fun () ->
                           if !state = `Waiting then begin
                             state := `Cancelled;
                             schedule t (fun () ->
                                 t.cur <- Some proc;
                                 discontinue k Killed;
                                 t.cur <- None)
                           end);
                     let wake v =
                       if !state = `Waiting && proc.alive then begin
                         state := `Woken;
                         proc.cancel <- None;
                         schedule t (fun () ->
                             t.cur <- Some proc;
                             continue k v;
                             t.cur <- None);
                         true
                       end
                       else false
                     in
                     register wake
                   end)
           | _ -> None);
     });
  t.cur <- None

(* [spawn] is an ordinary function call: a process spawning a sibling
   pays no effect round-trip (the old E_spawn), and callers that hold
   the engine — packet delivery, RaTP tx loops, load generators — can
   spawn straight from engine context.  Group inheritance follows the
   spawner when one is executing. *)
and spawn : t -> ?group:int -> string -> (unit -> unit) -> pid =
 fun t ?group name f ->
  let group =
    match group with
    | Some _ as g -> g
    | None -> ( match t.cur with Some p -> p.group | None -> None)
  in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let proc = { pid; name; group; alive = true; cancel = None; on_term = [] } in
  Hashtbl.replace t.procs pid proc;
  schedule t (fun () -> if proc.alive then run_proc t proc f else finish t proc);
  pid

let kill t pid =
  match Hashtbl.find_opt t.procs pid with
  | None -> ()
  | Some proc ->
      if proc.alive then begin
        proc.alive <- false;
        match proc.cancel with
        | Some c ->
            proc.cancel <- None;
            c ()
        | None -> ()
      end

let kill_group t group =
  let victims =
    Hashtbl.fold
      (fun pid proc acc -> if proc.group = Some group then pid :: acc else acc)
      t.procs []
  in
  List.iter (kill t) (List.sort Int.compare victims)

let on_terminate t pid f =
  match Hashtbl.find_opt t.procs pid with
  | Some proc -> proc.on_term <- f :: proc.on_term
  | None -> f ()

let alive t pid =
  match Hashtbl.find_opt t.procs pid with
  | None -> false
  | Some proc -> proc.alive

let procs t =
  Hashtbl.fold
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

let step t =
  with_running t (fun t ->
      if Evq.is_empty t.events then false
      else begin
        let ev = Evq.pop t.events in
        if ev.time > t.clock then t.clock <- ev.time;
        ev.thunk ();
        true
      end)

(* The drain loop pops at most once per iteration and never allocates
   (no options, no double peek): at a million-event load run this loop
   and the Evq sifts are the whole simulator. *)
let run ?until t =
  let limit = match until with Some u -> u | None -> max_int in
  with_running t (fun t ->
      let running = ref true in
      while !running do
        if Evq.is_empty t.events then running := false
        else begin
          let ev = Evq.min_elt t.events in
          if ev.time > limit then begin
            t.clock <- limit;
            running := false
          end
          else begin
            ignore (Evq.pop t.events);
            if ev.time > t.clock then t.clock <- ev.time;
            ev.thunk ()
          end
        end
      done)

module Process = struct
  let outside () = invalid_arg "Sim: process operation outside a process"

  let engine () =
    match !running with
    | Some ({ cur = Some _; _ } as t) -> t
    | Some _ | None -> outside ()

  let now () = (engine ()).clock

  let self () =
    match !running with
    | Some { cur = Some p; _ } -> p.pid
    | Some _ | None -> outside ()

  let sleep span = Effect.perform (E_sleep span)
  let yield () = sleep 0
  let suspend label register = Effect.perform (E_suspend (label, register))
  let spawn ?group name f = spawn (engine ()) ?group name f
end
