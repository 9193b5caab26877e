type t = {
  addr : Address.t;
  rx : Frame.t Sim.Mailbox.t;
  recv_cost_per_frame : Sim.Time.span;
  recv_cost_per_byte_ns : int;
  mutable attached : bool;
}

let create ~addr ~recv_cost_per_frame ~recv_cost_per_byte_ns =
  {
    addr;
    rx = Sim.Mailbox.create (Printf.sprintf "nic-%d-rx" addr);
    recv_cost_per_frame;
    recv_cost_per_byte_ns;
    attached = true;
  }

let deliver t frame = if t.attached then Sim.Mailbox.send t.rx frame

let recv t =
  let frame = Sim.Mailbox.recv t.rx in
  Sim.sleep
    (t.recv_cost_per_frame + (t.recv_cost_per_byte_ns * frame.Frame.bytes));
  frame

let try_recv t = Sim.Mailbox.try_recv t.rx
let set_attached t v = t.attached <- v
