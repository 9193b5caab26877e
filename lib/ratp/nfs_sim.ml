let rsize = 1024 (* bytes per READ rpc *)
let preamble_rpcs = 2 (* LOOKUP + GETATTR *)
let per_rpc_server_cost = Sim.Time.of_ms_f 1.5

type Net.Frame.payload +=
  | N_rpc of int  (* small rpc, sequence-numbered *)
  | N_rpc_ok of int
  | N_read of { xid : int; len : int }
  | N_read_ok of { xid : int; len : int }

let rpc_bytes = 96

let send ether ~src ~dst ~payload_bytes payload =
  Net.Ethernet.transmit ether
    (Net.Frame.make ~src ~dst:(Net.Frame.Unicast dst) ~payload_bytes payload)

let start_server ether ~addr ?group () =
  let nic = Net.Ethernet.attach ether addr in
  let eng = Net.Ethernet.engine ether in
  ignore
    (Sim.Engine.spawn eng ?group
       (Printf.sprintf "nfs-server-%d" addr)
       (fun () ->
         let rec loop () =
           let frame = Net.Nic.recv nic in
           let client = frame.Net.Frame.src in
           (match frame.Net.Frame.payload with
           | N_rpc n ->
               Sim.sleep per_rpc_server_cost;
               send ether ~src:addr ~dst:client ~payload_bytes:rpc_bytes
                 (N_rpc_ok n)
           | N_read { xid; len } ->
               Sim.sleep per_rpc_server_cost;
               send ether ~src:addr ~dst:client ~payload_bytes:(len + 112)
                 (N_read_ok { xid; len })
           | _ -> ());
           loop ()
         in
         loop ()))

type client = {
  ether : Net.Ethernet.t;
  nic : Net.Nic.t;
  addr : Net.Address.t;
  mutable xid : int;
}

let client ether ~addr =
  { ether; nic = Net.Ethernet.attach ether addr; addr; xid = 0 }

let fetch t ~server ~bytes =
  for i = 1 to preamble_rpcs do
    send t.ether ~src:t.addr ~dst:server ~payload_bytes:rpc_bytes (N_rpc i);
    let rec await () =
      match (Net.Nic.recv t.nic).Net.Frame.payload with
      | N_rpc_ok n when n = i -> ()
      | _ -> await ()
    in
    await ()
  done;
  let remaining = ref bytes in
  while !remaining > 0 do
    let len = min rsize !remaining in
    t.xid <- t.xid + 1;
    let xid = t.xid in
    send t.ether ~src:t.addr ~dst:server ~payload_bytes:rpc_bytes
      (N_read { xid; len });
    let rec await () =
      match (Net.Nic.recv t.nic).Net.Frame.payload with
      | N_read_ok r when r.xid = xid -> ()
      | _ -> await ()
    in
    await ();
    remaining := !remaining - len
  done
