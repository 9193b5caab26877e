let block_size = 512 (* data bytes per block (early-TCP-like) *)
let control_round_trips = 5 (* handshake + FTP command dialogue *)
let session_setup = Sim.Time.ms 8 (* server-side session/auth cost *)
let per_block_server_cost = Sim.Time.us 200

type Net.Frame.payload +=
  | F_ctl of int
  | F_ctl_ok of int
  | F_get of int  (* requested byte count *)
  | F_data of { seq : int; last : bool }
  | F_ack of int

let ctl_bytes = 48

let send ether ~src ~dst ~payload_bytes payload =
  Net.Ethernet.transmit ether
    (Net.Frame.make ~src ~dst:(Net.Frame.Unicast dst) ~payload_bytes payload)

let start_server ether ~addr ?group () =
  let nic = Net.Ethernet.attach ether addr in
  let eng = Net.Ethernet.engine ether in
  let serve_transfer ~client bytes =
    Sim.sleep session_setup;
    let nblocks = max 1 ((bytes + block_size - 1) / block_size) in
    let rec block seq =
      Sim.sleep per_block_server_cost;
      let last = seq = nblocks - 1 in
      let size =
        if last then bytes - (block_size * (nblocks - 1)) else block_size
      in
      send ether ~src:addr ~dst:client ~payload_bytes:(size + 40)
        (F_data { seq; last });
      let rec await_ack () =
        match (Net.Nic.recv nic).Net.Frame.payload with
        | F_ack n when n = seq -> ()
        | _ -> await_ack ()
      in
      await_ack ();
      if not last then block (seq + 1)
    in
    block 0
  in
  ignore
    (Sim.Engine.spawn eng ?group
       (Printf.sprintf "ftp-server-%d" addr)
       (fun () ->
         let rec loop () =
           let frame = Net.Nic.recv nic in
           let client = frame.Net.Frame.src in
           (match frame.Net.Frame.payload with
           | F_ctl n ->
               send ether ~src:addr ~dst:client ~payload_bytes:ctl_bytes
                 (F_ctl_ok n)
           | F_get bytes -> serve_transfer ~client bytes
           | _ -> ());
           loop ()
         in
         loop ()))

type client = {
  ether : Net.Ethernet.t;
  nic : Net.Nic.t;
  addr : Net.Address.t;
}

let client ether ~addr = { ether; nic = Net.Ethernet.attach ether addr; addr }

let fetch t ~server ~bytes =
  (* control dialogue: connect + USER/PASS/PORT/RETR, one round trip
     each *)
  for i = 1 to control_round_trips do
    send t.ether ~src:t.addr ~dst:server ~payload_bytes:ctl_bytes (F_ctl i);
    let rec await () =
      match (Net.Nic.recv t.nic).Net.Frame.payload with
      | F_ctl_ok n when n = i -> ()
      | _ -> await ()
    in
    await ()
  done;
  send t.ether ~src:t.addr ~dst:server ~payload_bytes:ctl_bytes (F_get bytes);
  let rec receive () =
    match (Net.Nic.recv t.nic).Net.Frame.payload with
    | F_data { seq; last } ->
        send t.ether ~src:t.addr ~dst:server ~payload_bytes:ctl_bytes
          (F_ack seq);
        if not last then receive ()
    | _ -> receive ()
  in
  receive ()
