module Cl = Clouds.Cluster

let crash_now cl addr =
  match Cl.node_by_id cl addr with
  | Some node -> Ra.Node.crash node
  | None -> invalid_arg "Failure.crash_now: unknown node"

let crash_at cl addr span =
  let eng = cl.Cl.eng in
  Sim.Engine.at eng
    (Sim.Time.add (Sim.Engine.now eng) span)
    (fun () -> crash_now cl addr)

let restart_at cl addr span =
  let eng = cl.Cl.eng in
  Sim.Engine.at eng
    (Sim.Time.add (Sim.Engine.now eng) span)
    (fun () ->
      (* resolved at fire time, like [crash_at]: a node registered
         between scheduling and firing restarts; an address that is
         still unknown raises instead of silently doing nothing *)
      match Cl.node_by_id cl addr with
      | Some node ->
          Ra.Node.restart node;
          (match Cl.server_at cl addr with
          | Some server -> Dsm.Dsm_server.recover server
          | None -> ())
      | None -> invalid_arg "Failure.restart_at: unknown node")
