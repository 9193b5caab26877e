type config = {
  bandwidth_bps : int;
  propagation : Sim.Time.span;
  frame_gap : Sim.Time.span;
  mtu_payload : int;
  send_cost_per_frame : Sim.Time.span;
  recv_cost_per_frame : Sim.Time.span;
  cost_per_byte_ns : int;
}

let default_config =
  {
    bandwidth_bps = 10_000_000;
    propagation = Sim.Time.us 5;
    frame_gap = Sim.Time.us 10;
    mtu_payload = 1482;
    send_cost_per_frame = Sim.Time.us 550;
    recv_cost_per_frame = Sim.Time.us 550;
    cost_per_byte_ns = 20;
  }

module Nics = Sim.Int_table

type t = {
  eng : Sim.Engine.t;
  cfg : config;
  fault : Fault.t;
  nics : Nic.t Nics.t;
  bus : Sim.Mutex.t;
  frames : Sim.Stats.counter;
  bytes : Sim.Stats.counter;
}

let create eng ?(config = default_config) () =
  {
    eng;
    cfg = config;
    fault = Fault.create eng (Sim.Rng.split (Sim.Engine.rng eng));
    nics = Nics.create 16;
    bus = Sim.Mutex.create ~label:"ether-bus" ();
    frames = Sim.Stats.counter "net/frames";
    bytes = Sim.Stats.counter "net/bytes";
  }

let config t = t.cfg
let fault t = t.fault
let engine t = t.eng

let attach t addr =
  if Nics.mem t.nics addr then invalid_arg "Ethernet.attach: address in use";
  let nic =
    Nic.create t.eng ~addr ~recv_cost_per_frame:t.cfg.recv_cost_per_frame
      ~recv_cost_per_byte_ns:t.cfg.cost_per_byte_ns
  in
  Nics.replace t.nics addr nic;
  nic

let nic t addr = Nics.find_opt t.nics addr

let detach t addr =
  match nic t addr with Some n -> Nic.set_attached n false | None -> ()

let reattach t addr =
  match nic t addr with Some n -> Nic.set_attached n true | None -> ()

let wire_time cfg bytes =
  let bits = bytes * 8 in
  let ns = int_of_float (float_of_int bits /. float_of_int cfg.bandwidth_bps *. 1e9) in
  ns + cfg.frame_gap

let push t addr frame =
  match Nics.find_opt t.nics addr with
  | Some n -> Nic.deliver n frame
  | None -> ()

(* Delivery happens [propagation] after the wire time ends; faults
   are evaluated per destination at delivery time.  The fault plan
   may suppress the frame, deliver extra copies, or push a copy
   later (jitter / reordering). *)
let rec deliver_copies t addr frame = function
  | [] -> ()
  | extra :: rest ->
      if extra <= 0 then push t addr frame
      else
        Sim.Engine.at t.eng
          (Sim.Time.add (Sim.Engine.now t.eng) extra)
          (fun () -> push t addr frame);
      deliver_copies t addr frame rest

let deliver_to t addr (frame : Frame.t) =
  deliver_copies t addr frame (Fault.plan t.fault ~src:frame.src ~dst:addr frame)

let deliver t (frame : Frame.t) =
  match frame.dst with
  | Frame.Unicast addr -> deliver_to t addr frame
  | Frame.Broadcast ->
      let addrs =
        Nics.fold
          (fun addr _ acc ->
            if Address.equal addr frame.src then acc else addr :: acc)
          t.nics []
      in
      List.iter (fun addr -> deliver_to t addr frame) (List.sort Address.compare addrs)

let host_send_cost cfg (frame : Frame.t) =
  cfg.send_cost_per_frame + (cfg.cost_per_byte_ns * frame.bytes)

(* --- a frame's passage over the bus, as engine events -------------- *)

(* [Waiting] in the bus FIFO, [Granted] the bus with the grant's event
   pending, [On_wire] until the wire-end event: the states of a
   process that transmits (suspended, woken, sleeping), and a kill
   stops the passage where it would stop that process. *)
type phase = Off | Waiting | Granted | On_wire

type sender = {
  ether : t;
  mutable frame : Frame.t;
  mutable phase : phase;
  mutable ev : Sim.Engine.timer;
      (* the grant or wire-end event, pending or last, rearmed for the
         next *)
  mutable dead : bool;
  mutable sent : unit -> unit;
  mutable grant : unit -> bool;
  mutable granted : unit -> unit;
  mutable wire_end : unit -> unit;
}

let check_mtu t (frame : Frame.t) =
  if frame.bytes - Frame.header_bytes > t.cfg.mtu_payload then
    invalid_arg "Ethernet.transmit: payload exceeds MTU"

let on_wire s =
  let t = s.ether in
  s.phase <- On_wire;
  s.ev <-
    Sim.Engine.retime t.eng s.ev
      (Sim.Time.add (Sim.Engine.now t.eng) (wire_time t.cfg s.frame.bytes))
      s.wire_end

(* The bus FIFO's waker: the grant takes an event of its own, where
   the woken process's resumption was. *)
let grant s () =
  (not s.dead)
  && begin
       let t = s.ether in
       s.phase <- Granted;
       s.ev <- Sim.Engine.retime t.eng s.ev (Sim.Engine.now t.eng) s.granted;
       true
     end

(* Handed the bus after its owner died, the sender passes it on at
   once, as the dying process's unwinding did. *)
let granted s () =
  if s.dead then begin
    s.phase <- Off;
    s.frame <- Frame.none;
    Sim.Mutex.unlock s.ether.bus;
    s.sent ()
  end
  else on_wire s

let wire_end s () =
  let t = s.ether and frame = s.frame in
  s.frame <- Frame.none;
  Sim.Stats.incr t.frames;
  Sim.Stats.incr_by t.bytes frame.bytes;
  Sim.Engine.at t.eng
    (Sim.Time.add (Sim.Engine.now t.eng) t.cfg.propagation)
    (fun () -> deliver t frame);
  s.phase <- Off;
  Sim.Mutex.unlock t.bus;
  s.sent ()

let sender t =
  let s =
    {
      ether = t;
      frame = Frame.none;
      phase = Off;
      ev = Sim.Engine.no_timer;
      dead = false;
      sent = ignore;
      grant = (fun () -> false);
      granted = ignore;
      wire_end = ignore;
    }
  in
  s.grant <- grant s;
  s.granted <- granted s;
  s.wire_end <- wire_end s;
  s

let put s frame sent =
  check_mtu s.ether frame;
  s.frame <- frame;
  s.sent <- sent;
  s.dead <- false;
  if Sim.Mutex.acquire s.ether.bus s.grant then on_wire s
  else s.phase <- Waiting

let abort s =
  let t = s.ether in
  s.dead <- true;
  match s.phase with
  | On_wire ->
      (* the frame is neither counted nor delivered, and the bus is
         released in an event of its own, where a killed transmitting
         process's abort releases it *)
      Sim.Engine.cancel t.eng s.ev;
      s.phase <- Off;
      Sim.Engine.at t.eng (Sim.Engine.now t.eng) (fun () ->
          Sim.Mutex.unlock t.bus);
      true
  | Granted -> false
  | Waiting | Off -> true

let transmit t (frame : Frame.t) =
  check_mtu t frame;
  Sim.sleep (host_send_cost t.cfg frame);
  let s = sender t in
  Sim.Engine.Process.park
    (fun () -> abort s)
    (fun p -> put s frame (fun () -> Sim.Engine.resume t.eng p))

let frames_sent t = Sim.Stats.value t.frames
let bytes_sent t = Sim.Stats.value t.bytes
