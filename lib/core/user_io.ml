let service = 20

type Ratp.Packet.body += Io_print of string | Io_ok

let install node terminal =
  Ratp.Endpoint.serve node.Ra.Node.endpoint ~service (fun ~src:_ body ->
      match body with
      | Io_print line ->
          Terminal.print terminal line;
          (Io_ok, 16)
      | _ -> (Io_ok, 16))

let remote_print node ~workstation line =
  match
    Ratp.Endpoint.call node.Ra.Node.endpoint ~dst:workstation ~service
      ~size:(24 + String.length line)
      (Io_print line)
  with
  | Ok _ | Error Ratp.Endpoint.Timeout -> ()
