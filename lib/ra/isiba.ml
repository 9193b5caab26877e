let compute node span = Cpu.consume node.Node.cpu ~key:(Sim.self ()) span
