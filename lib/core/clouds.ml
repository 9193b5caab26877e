(** Clouds: a persistent object / thread distributed operating
    system, reproduced in simulation.

    The programming model is the paper's: define classes
    ({!Obj_class}), load them onto a cluster ({!Cluster}), create
    object instances and invoke their entry points with threads
    ({!Object_manager}, {!Thread}).  Objects are persistent virtual
    address spaces demand-paged through DSM; threads traverse objects
    carrying only values ({!Value}); names are translated by a name
    server that is itself a Clouds object ({!Name_server}). *)

module Value = Value
module Memory = Memory
module Pheap = Pheap
module Ctx = Ctx
module Obj_class = Obj_class
module Terminal = Terminal
module User_io = User_io
module Ring = Ring
module Placement = Placement
module Cluster = Cluster
module Object_manager = Object_manager
module Thread = Thread
module Name_server = Name_server
module Replicator = Replicator
module Telemetry = Telemetry

type system = {
  cluster : Cluster.t;
  om : Object_manager.t;
}

let boot eng ?ratp_config ?ether_config ?replication
    ?group_commit_window ?checkpoint_every ~compute ~data ~workstations () =
  let cluster =
    Cluster.create eng ?ratp_config ?ether_config ?replication
      ?group_commit_window ?checkpoint_every ~compute ~data ~workstations ()
  in
  let om = Object_manager.create cluster in
  { cluster; om }
