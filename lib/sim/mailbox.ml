(* Receivers wait in FIFO order.  A waker returns false when its
   process already died (a crashed machine's receiver): the value
   then goes to the next waiter, or back to the queue. *)

type 'a t = {
  label : string;
  values : 'a Queue.t;
  waiters : ('a -> bool) Queue.t;
}

let create label =
  { label; values = Queue.create (); waiters = Queue.create () }

let rec send t v =
  match Queue.take_opt t.waiters with
  | None -> Queue.add v t.values
  | Some wake -> if not (wake v) then send t v

let recv t =
  match Queue.take_opt t.values with
  | Some v -> v
  | None ->
      Engine.Process.suspend t.label (fun wake -> Queue.add wake t.waiters)

let try_recv t = Queue.take_opt t.values
let length t = Queue.length t.values
