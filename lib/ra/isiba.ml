type stack = Kernel | User | Interrupt

type t = { pid : Sim.Engine.pid; stack : stack; node : Node.t }

let spawn node ?(stack = Kernel) name f =
  let pid = Node.spawn node name f in
  { pid; stack; node }

let compute node span = Cpu.consume node.Node.cpu ~key:(Sim.self ()) span
