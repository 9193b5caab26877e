module Time = Time
module Rng = Rng
module Engine = Engine
module Ivar = Ivar
module Mailbox = Mailbox
module Semaphore = Semaphore
module Mutex = Mutex
module Stats = Stats
module Fanout = Fanout
module Int_table = Int_table

exception Killed = Engine.Killed

let engine = Engine.Process.engine
let now = Engine.Process.now
let self = Engine.Process.self
let sleep = Engine.Process.sleep
let yield = Engine.Process.yield
let suspend = Engine.Process.suspend
let spawn = Engine.Process.spawn

let after span thunk =
  let eng = engine () in
  Engine.at eng (Time.add (Engine.now eng) span) thunk

let exec_on eng f =
  let result = Ivar.create () in
  let _pid =
    Engine.spawn eng "exec" (fun () -> Ivar.fill result (f ()))
  in
  Engine.run eng;
  match Ivar.peek result with
  | Some v -> v
  | None -> failwith "Sim.exec: deadlock (event queue drained before completion)"

let exec ?seed f =
  let eng = Engine.create ?seed () in
  exec_on eng f
