(* The owner's receive: [Idle] with nothing to do, [Busy] while an
   event of the receive is pending or the handler runs, [Stopped]
   once the owner's task was killed (a machine crash) until it
   listens again.  Frames that arrive meanwhile wait in [rx]. *)
type rx_state = Unowned | Idle | Busy | Stopped

type t = {
  addr : Address.t;
  eng : Sim.Engine.t;
  rx : Frame.t Sim.Mailbox.t;
  recv_cost_per_frame : Sim.Time.span;
  recv_cost_per_byte_ns : int;
  mutable attached : bool;
  mutable state : rx_state;
  mutable handler : Frame.t -> unit;
  mutable listener : Sim.Engine.task option;  (* the receive's task *)
  mutable ev : Sim.Engine.timer;
      (* the receive's pending event, or its last one, rearmed for the
         next: the receive has one pending event at a time *)
  mutable frame : Frame.t;  (* the frame in receive *)
  mutable pump : unit -> unit;
  mutable charge : unit -> unit;
  mutable received : unit -> unit;
}

let cost t (frame : Frame.t) =
  t.recv_cost_per_frame + (t.recv_cost_per_byte_ns * frame.bytes)

let arm t time thunk = t.ev <- Sim.Engine.retime t.eng t.ev time thunk

let charge t () =
  arm t (Sim.Time.add (Sim.Engine.now t.eng) (cost t t.frame)) t.received

(* Take the next queued frame into receive at once, as a receiving
   process's next [recv] would, or go idle. *)
let pump t () =
  match Sim.Mailbox.try_recv t.rx with
  | Some frame ->
      t.frame <- frame;
      charge t ()
  | None -> t.state <- Idle

let received t () =
  let frame = t.frame in
  t.frame <- Frame.none;
  t.handler frame;
  if t.state = Busy then pump t ()

let create eng ~addr ~recv_cost_per_frame ~recv_cost_per_byte_ns =
  let t =
    {
      addr;
      eng;
      rx = Sim.Mailbox.create (Printf.sprintf "nic-%d-rx" addr);
      recv_cost_per_frame;
      recv_cost_per_byte_ns;
      attached = true;
      state = Unowned;
      handler = ignore;
      listener = None;
      ev = Sim.Engine.no_timer;
      frame = Frame.none;
      pump = ignore;
      charge = ignore;
      received = ignore;
    }
  in
  t.pump <- pump t;
  t.charge <- charge t;
  t.received <- received t;
  t

(* A frame to an idle owner is taken into receive at once and its cost
   charged from an event of its own, where a receiving process would
   be woken; otherwise it queues. *)
let deliver t frame =
  if t.attached then
    if t.state = Idle then begin
      t.state <- Busy;
      t.frame <- frame;
      arm t (Sim.Engine.now t.eng) t.charge
    end
    else Sim.Mailbox.send t.rx frame

let stop t () =
  Sim.Engine.cancel t.eng t.ev;
  t.frame <- Frame.none;
  t.state <- Stopped

(* A previous owner's receive stops as a kill would stop it (if a crash
   has not already). *)
let listen t ~group handler =
  Option.iter (Sim.Engine.retire t.eng) t.listener;
  stop t ();
  t.handler <- handler;
  t.listener <- Some (Sim.Engine.task t.eng ~group (stop t));
  t.state <- Busy;
  arm t (Sim.Engine.now t.eng) t.pump

let recv t =
  let frame = Sim.Mailbox.recv t.rx in
  Sim.sleep (cost t frame);
  frame

let try_recv t = Sim.Mailbox.try_recv t.rx
let set_attached t v = t.attached <- v
