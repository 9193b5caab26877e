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
  mutable live : bool;
  thunk : unit -> unit;
}

(* The event queue is a binary heap specialized to events: the
   (time, order) comparison is two inline int compares instead of a
   call through a comparator closure, and the hot operations return
   events directly (guarded by [is_empty]) rather than allocating an
   option per peek/pop.  Vacated slots are overwritten with a shared
   dummy so popped event closures stay collectable. *)
module Evq = struct
  let dummy = { time = min_int; order = 0; live = false; thunk = ignore }

  type t = { mutable arr : event array; mutable n : int }

  let create () = { arr = [||]; n = 0 }
  let length q = q.n
  let is_empty q = q.n = 0

  let[@inline] before a b =
    a.time < b.time || (a.time = b.time && a.order < b.order)

  let push q ev =
    let cap = Array.length q.arr in
    if q.n >= cap then begin
      let arr = Array.make (if cap = 0 then 256 else 2 * cap) dummy in
      Array.blit q.arr 0 arr 0 q.n;
      q.arr <- arr
    end;
    let arr = q.arr in
    let i = ref q.n in
    q.n <- q.n + 1;
    arr.(!i) <- ev;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let parent = (!i - 1) / 2 in
      if before arr.(!i) arr.(parent) then begin
        let tmp = arr.(!i) in
        arr.(!i) <- arr.(parent);
        arr.(parent) <- tmp;
        i := parent
      end
      else sifting := false
    done

  (* Precondition for [min_elt] and [pop]: not empty. *)
  let min_elt q = q.arr.(0)

  let pop q =
    let arr = q.arr in
    let root = arr.(0) in
    q.n <- q.n - 1;
    let n = q.n in
    if n > 0 then begin
      arr.(0) <- arr.(n);
      arr.(n) <- dummy;
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < n && before arr.(l) arr.(!s) then s := l;
        if r < n && before arr.(r) arr.(!s) then s := r;
        if !s <> !i then begin
          let tmp = arr.(!i) in
          arr.(!i) <- arr.(!s);
          arr.(!s) <- tmp;
          i := !s
        end
        else sifting := false
      done
    end
    else arr.(0) <- dummy;
    root
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
  | E_engine : t Effect.t
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

(* Cancelled events stay in the heap but are skipped without
   advancing the clock, so a killed sleeper does not drag the
   simulation clock to its original wake-up time. *)
let schedule_cancellable t time thunk =
  t.seq <- t.seq + 1;
  let time = if time < t.clock then t.clock else time in
  let ev = { time; order = t.seq; live = true; thunk } in
  Evq.push t.events ev;
  ev

let schedule_at t time thunk = ignore (schedule_cancellable t time thunk)
let schedule t thunk = schedule_at t t.clock thunk
let at = schedule_at

let rec drop_dead t =
  if (not (Evq.is_empty t.events)) && not (Evq.min_elt t.events).live then begin
    ignore (Evq.pop t.events);
    drop_dead t
  end

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
           | E_engine -> Some (fun (k : (a, _) continuation) -> continue k t)
           | E_sleep span ->
               Some
                 (fun (k : (a, _) continuation) ->
                   if not proc.alive then discontinue k Killed
                   else begin
                     let state = ref `Waiting in
                     let timer = ref None in
                     proc.cancel <-
                       Some
                         (fun () ->
                           if !state = `Waiting then begin
                             state := `Cancelled;
                             (match !timer with
                             | Some ev -> ev.live <- false
                             | None -> ());
                             schedule t (fun () ->
                                 t.cur <- Some proc;
                                 discontinue k Killed;
                                 t.cur <- None)
                           end);
                     timer :=
                       Some
                         (schedule_cancellable t (Time.add t.clock span)
                            (fun () ->
                              if !state = `Waiting then begin
                                state := `Fired;
                                proc.cancel <- None;
                                t.cur <- Some proc;
                                continue k ();
                                t.cur <- None
                              end))
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

let step t =
  drop_dead t;
  if Evq.is_empty t.events then false
  else begin
    let ev = Evq.pop t.events in
    if ev.time > t.clock then t.clock <- ev.time;
    ev.thunk ();
    true
  end

(* The drain loop pops at most once per iteration and never allocates
   (no options, no double peek): at a million-event load run this loop
   and the Evq sifts are the whole simulator. *)
let run ?until t =
  let limit = match until with Some u -> u | None -> max_int in
  let running = ref true in
  while !running do
    if Evq.is_empty t.events then running := false
    else begin
      let ev = Evq.min_elt t.events in
      if not ev.live then ignore (Evq.pop t.events)
      else if ev.time > limit then begin
        t.clock <- limit;
        running := false
      end
      else begin
        ignore (Evq.pop t.events);
        if ev.time > t.clock then t.clock <- ev.time;
        ev.thunk ()
      end
    end
  done

module Process = struct
  let engine () = Effect.perform E_engine
  let now () = now (engine ())

  let self () =
    match (engine ()).cur with
    | Some p -> p.pid
    | None -> invalid_arg "Engine.Process.self: no current process"

  let sleep span = Effect.perform (E_sleep span)
  let yield () = sleep 0
  let suspend label register = Effect.perform (E_suspend (label, register))
  let spawn ?group name f = spawn (engine ()) ?group name f
end
