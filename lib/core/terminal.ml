type t = { mutable rev_output : string list; mutable echo : bool }

let create () = { rev_output = []; echo = false }

let print t line =
  t.rev_output <- line :: t.rev_output;
  if t.echo then print_endline line

let output t = List.rev t.rev_output
let set_echo t v = t.echo <- v
