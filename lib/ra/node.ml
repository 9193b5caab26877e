type kind = Compute | Data | Workstation

type t = {
  id : int;
  kind : kind;
  eng : Sim.Engine.t;
  ether : Net.Ethernet.t;
  cpu : Cpu.t;
  mmu : Mmu.t;
  endpoint : Ratp.Endpoint.t;
  names : Sysname.gen;
  mutable alive : bool;
  mutable sched_load : int;
}

let create ether ~id ~kind ?ratp_config ?max_frames () =
  let eng = Net.Ethernet.engine ether in
  let cpu = Cpu.create () in
  let mmu = Mmu.create ?max_frames ~cpu () in
  let endpoint =
    Ratp.Endpoint.create ether ~addr:id ~group:id ?config:ratp_config ()
  in
  {
    id;
    kind;
    eng;
    ether;
    cpu;
    mmu;
    endpoint;
    names = Sysname.make_gen ~node:id;
    alive = true;
    sched_load = 0;
  }

let crash t =
  t.alive <- false;
  Net.Ethernet.detach t.ether t.id;
  Sim.Engine.kill_group t.eng t.id;
  Mmu.clear t.mmu

let restart t =
  t.alive <- true;
  Net.Ethernet.reattach t.ether t.id;
  Ratp.Endpoint.restart t.endpoint

let spawn t name f = Sim.Engine.spawn t.eng ~group:t.id name f

let pp_kind fmt = function
  | Compute -> Format.pp_print_string fmt "compute"
  | Data -> Format.pp_print_string fmt "data"
  | Workstation -> Format.pp_print_string fmt "workstation"
