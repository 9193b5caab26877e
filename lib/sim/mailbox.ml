(* Waiters are callbacks returning true when they consumed the value;
   a waiter whose timeout already fired (or whose process died) is
   marked dead and skipped, letting the value go to the next waiter
   or back to the queue.  Dead waiters are compacted out of the queue
   lazily: a timeout only rotates the queue once dead entries
   outnumber live ones, so a mailbox polled with [recv_timeout] in a
   retry loop keeps a bounded waiter queue at amortized O(1) per
   timeout instead of O(queue) each. *)

type 'a waiter = { wake : 'a -> bool; mutable dead : bool }

type 'a t = {
  label : string;
  values : 'a Queue.t;
  waiters : 'a waiter Queue.t;
  mutable dead_count : int;  (* dead waiters still in [waiters] *)
}

let create label =
  { label; values = Queue.create (); waiters = Queue.create (); dead_count = 0 }

let rec offer t v =
  match Queue.take_opt t.waiters with
  | None -> Queue.add v t.values
  | Some w ->
      if w.dead then begin
        t.dead_count <- t.dead_count - 1;
        offer t v
      end
      else if w.wake v then w.dead <- true
      else begin
        w.dead <- true;
        offer t v
      end

let send t v = offer t v

let purge_dead t =
  for _ = 1 to Queue.length t.waiters do
    let w = Queue.pop t.waiters in
    if not w.dead then Queue.add w t.waiters
  done;
  t.dead_count <- 0

(* Called when a queued waiter dies in place (timeout fired).  Keeps
   the invariant that live waiters are at least half the queue, which
   bounds the queue at 2× the live waiters and makes each purge pay
   for the timeouts that preceded it. *)
let note_dead t =
  t.dead_count <- t.dead_count + 1;
  if 2 * t.dead_count > Queue.length t.waiters then purge_dead t

let recv t =
  match Queue.take_opt t.values with
  | Some v -> v
  | None ->
      Engine.Process.suspend t.label (fun wake ->
          Queue.add { wake = (fun v -> wake v); dead = false } t.waiters)

let recv_timeout t span =
  match Queue.take_opt t.values with
  | Some v -> Some v
  | None ->
      let eng = Engine.Process.engine () in
      let deadline = Time.add (Engine.now eng) span in
      (* A delivered value cancels the deadline; a fired deadline
         marks the waiter dead, so no value is offered to it after. *)
      Engine.Process.suspend t.label (fun wake ->
          let deadline_timer = ref None in
          let w =
            {
              dead = false;
              wake =
                (fun v ->
                  let woke = wake (Some v) in
                  if woke then Option.iter (Engine.cancel eng) !deadline_timer;
                  woke);
            }
          in
          Queue.add w t.waiters;
          deadline_timer :=
            Some
              (Engine.timer eng deadline (fun () ->
                   w.dead <- true;
                   note_dead t;
                   ignore (wake None))))

let try_recv t = Queue.take_opt t.values
let length t = Queue.length t.values

let waiters t =
  Queue.fold (fun acc w -> if w.dead then acc else acc + 1) 0 t.waiters
