type 'a state = Empty of ('a -> bool) list | Full of 'a

type 'a t = { label : string; mutable state : 'a state }

let create ?(label = "ivar") () = { label; state = Empty [] }

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
      t.state <- Full v;
      List.iter (fun wake -> ignore (wake v)) (List.rev waiters);
      true

let fill t v =
  if not (try_fill t v) then invalid_arg "Ivar.fill: already full"

let register t wake =
  match t.state with
  | Full v -> ignore (wake v)
  | Empty waiters -> t.state <- Empty (wake :: waiters)

let read t =
  match t.state with
  | Full v -> v
  | Empty _ -> Engine.Process.suspend t.label (register t)

(* A reader with a deadline: the fill cancels [timer]; a fired
   deadline unregisters [waiter] before waking the reader, so a poll
   loop leaves nothing behind. *)
type 'a deadline = { mutable timer : Engine.timer; mutable waiter : 'a -> bool }

let expire t d wake () =
  (match t.state with
  | Empty ws -> t.state <- Empty (List.filter (( != ) d.waiter) ws)
  | Full _ -> ());
  ignore (wake None)

let read_timeout t span =
  match t.state with
  | Full v -> Some v
  | Empty _ ->
      let eng = Engine.Process.engine () in
      let deadline = Time.add (Engine.now eng) span in
      Engine.Process.suspend t.label (fun wake ->
          let d = { timer = Engine.no_timer; waiter = (fun _ -> false) } in
          d.waiter <-
            (fun v ->
              Engine.cancel eng d.timer;
              wake (Some v));
          register t d.waiter;
          d.timer <- Engine.timer eng deadline (expire t d wake))

let peek t = match t.state with Full v -> Some v | Empty _ -> None

let waiters t = match t.state with Empty ws -> List.length ws | Full _ -> 0
