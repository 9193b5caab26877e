type t = { label : string; mutable held : bool; waiters : (unit -> bool) Queue.t }

let create ?(label = "mutex") () =
  { label; held = false; waiters = Queue.create () }

let acquire t waker =
  (not t.held)
  && begin
       t.held <- true;
       true
     end
  || begin
       Queue.add waker t.waiters;
       false
     end

let lock t =
  if not t.held then t.held <- true
  else Engine.Process.suspend t.label (fun wake -> Queue.add wake t.waiters)

let rec unlock t =
  if not t.held then invalid_arg "Mutex.unlock: not locked";
  match Queue.take_opt t.waiters with
  | Some wake ->
      (* ownership hands off directly (stays held) unless the waiter
         died while queued, in which case try the next one *)
      if not (wake ()) then begin
        t.held <- true;
        unlock t
      end
  | None -> t.held <- false

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e

let locked t = t.held
