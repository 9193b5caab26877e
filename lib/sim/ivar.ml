type 'a state = Empty of ('a -> bool) list | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
      t.state <- Full v;
      List.iter (fun wake -> ignore (wake v)) (List.rev waiters);
      true

let fill t v =
  if not (try_fill t v) then invalid_arg "Ivar.fill: already full"

let read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
      Engine.Process.suspend "ivar" (fun wake ->
          match t.state with
          | Full v -> ignore (wake v)
          | Empty waiters -> t.state <- Empty (wake :: waiters))

let peek t = match t.state with Full v -> Some v | Empty _ -> None
