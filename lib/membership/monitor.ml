(* Heartbeat failure detector.  See monitor.mli for the protocol.

   The monitor is deliberately pull-free: watched nodes push
   [Heartbeat] datagrams on a fixed period and the monitor condemns by
   silence.  Senders live in the global process group, guarded by the
   watched node's [alive] flag, so a machine crash silences its
   heartbeats (the detector's whole signal) without killing the sender
   — when the machine restarts, beats resume and the member is moved
   back to [Alive] under a fresh epoch. *)

type status = Alive | Suspect | Dead

type member = { addr : Net.Address.t; status : status }
type view = { epoch : int; members : member list }

type config = {
  period : Sim.Time.span;
  suspect_after : Sim.Time.span;
  dead_after : Sim.Time.span;
}

let default_config =
  {
    period = Sim.Time.ms 25;
    suspect_after = Sim.Time.ms 75;
    dead_after = Sim.Time.ms 200;
  }

type Ratp.Packet.body += Heartbeat of Net.Address.t | Heartbeat_ack

let service = 40
let heartbeat_bytes = 24

type entry = {
  mutable last_seen : Sim.Time.t;
  mutable e_status : status;
  mutable died_at : Sim.Time.t option;
}

type t = {
  host : Ra.Node.t;
  config : config;
  entries : (Net.Address.t, entry) Hashtbl.t;
  mutable order : Net.Address.t list;  (* watched addresses, sorted *)
  mutable epoch : int;
  mutable subscribers : (view -> unit) list;  (* reversed *)
  mutable stopped : bool;
  beats : Sim.Stats.counter;
}

let host t = t.host

let view t =
  {
    epoch = t.epoch;
    members =
      List.map
        (fun a ->
          let e = Hashtbl.find t.entries a in
          { addr = a; status = e.e_status })
        t.order;
  }

let epoch t = t.epoch

let status_of t a =
  match Hashtbl.find_opt t.entries a with
  | Some e -> e.e_status
  | None -> Alive

let is_dead t a = status_of t a = Dead
let usable t a = status_of t a <> Dead

let last_death t a =
  match Hashtbl.find_opt t.entries a with
  | Some e -> e.died_at
  | None -> None

let subscribe t f = t.subscribers <- f :: t.subscribers
let metrics t = [ Sim.Stats.Counter t.beats ]
let stop t = t.stopped <- true

let notify t =
  let v = view t in
  List.iter (fun f -> f v) (List.rev t.subscribers)

let bump t = t.epoch <- t.epoch + 1

(* A beat arrived from [a]: refresh its clock and, if it had been
   condemned or suspected, announce the rejoin. *)
let record_beat t a =
  match Hashtbl.find_opt t.entries a with
  | None -> ()
  | Some e ->
      Sim.Stats.incr t.beats;
      e.last_seen <- Sim.Engine.now t.host.Ra.Node.eng;
      if e.e_status <> Alive then begin
        e.e_status <- Alive;
        bump t;
        notify t
      end

(* Condemn by silence.  Runs on the monitor's period; one epoch bump
   covers all transitions found in a single sweep. *)
let sweep t =
  let now = Sim.Engine.now t.host.Ra.Node.eng in
  let changed = ref false in
  List.iter
    (fun a ->
      let e = Hashtbl.find t.entries a in
      let silence = Sim.Time.diff now e.last_seen in
      match e.e_status with
      | Dead -> ()
      | Alive | Suspect ->
          if silence > t.config.dead_after then begin
            e.e_status <- Dead;
            e.died_at <- Some now;
            changed := true
          end
          else if silence > t.config.suspect_after && e.e_status = Alive
          then begin
            e.e_status <- Suspect;
            changed := true
          end)
    t.order;
  if !changed then begin
    bump t;
    notify t
  end

let create ?(config = default_config) host =
  let t =
    {
      host;
      config;
      entries = Hashtbl.create 16;
      order = [];
      epoch = 0;
      subscribers = [];
      stopped = false;
      beats = Sim.Stats.counter "mbr/heartbeats";
    }
  in
  Ratp.Endpoint.serve host.Ra.Node.endpoint ~service (fun ~src:_ body ->
      (match body with Heartbeat a -> record_beat t a | _ -> ());
      (Heartbeat_ack, 16));
  let checker () =
    let rec loop () =
      if not t.stopped then begin
        Sim.sleep t.config.period;
        if not t.stopped then begin
          if t.host.Ra.Node.alive then sweep t;
          loop ()
        end
      end
    in
    loop ()
  in
  ignore
    (Sim.Engine.spawn host.Ra.Node.eng ~group:host.Ra.Node.id
       (Printf.sprintf "mbr-check-%d" host.Ra.Node.id)
       checker);
  t

let watch t node =
  let a = node.Ra.Node.id in
  if not (Hashtbl.mem t.entries a) then begin
    let e =
      {
        last_seen = Sim.Engine.now t.host.Ra.Node.eng;
        e_status = Alive;
        died_at = None;
      }
    in
    Hashtbl.replace t.entries a e;
    t.order <- List.sort Net.Address.compare (a :: t.order);
    let sender () =
      let rec loop () =
        if not t.stopped then begin
          Sim.sleep t.config.period;
          if not t.stopped then begin
            (if node.Ra.Node.alive && t.host.Ra.Node.alive then
               match
                 Ratp.Endpoint.call node.Ra.Node.endpoint
                   ~dst:t.host.Ra.Node.id ~service ~size:heartbeat_bytes
                   (Heartbeat a)
               with
               | Ok _ | Error Ratp.Endpoint.Timeout -> ());
            loop ()
          end
        end
      in
      loop ()
    in
    (* Global group: survives the watched machine's crash so beats can
       resume after restart; the [alive] guard keeps it quiet while the
       machine is down. *)
    ignore
      (Sim.Engine.spawn t.host.Ra.Node.eng
         (Printf.sprintf "mbr-beat-%d" a)
         sender)
  end
