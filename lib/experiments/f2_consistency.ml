module V = Clouds.Value

type mode_point = {
  mode : string;
  mean_ms : float;
  lock_rpcs : int;
  lock_upgrades : int;
}

type result = { modes : mode_point list; spans : (int * float) list }

(* Part B spreads its accounts over this many data servers. *)
let data_servers = 4

let count mgr path = Obs.Registry.count (Atomicity.Manager.metrics mgr) path

let run ?(samples = 30) () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys =
        Clouds.boot eng ~compute:2 ~data:data_servers ~workstations:0 ()
      in
      let mgr = Atomicity.Manager.install sys.Clouds.om () in
      Apps.Bank.register sys.Clouds.om;
      Clouds.Cluster.register_class sys.Clouds.cluster
        (Fixtures.batcher_cls "batcher");
      let node = sys.Clouds.cluster.Clouds.Cluster.compute_nodes.(0) in
      let time f =
        let t0 = Sim.now () in
        f ();
        Sim.Time.to_ms_f (Sim.Time.diff (Sim.now ()) t0)
      in
      (* part A: one deposit under each consistency label *)
      let modes =
        List.map
          (fun (mode, label) ->
            let acct = Apps.Bank.open_account sys.Clouds.om ~balance:0 () in
            let entry =
              match label with
              | Clouds.Obj_class.Gcp -> "deposit"
              | Clouds.Obj_class.Lcp -> "deposit_lcp"
              | Clouds.Obj_class.S -> "deposit_s"
            in
            let deposit () =
              ignore
                (Clouds.Object_manager.invoke sys.Clouds.om ~node ~thread_id:0
                   ~origin:None ~txn:None ~obj:acct ~entry (V.Int 1))
            in
            (* warm the object on the pinned invoking node *)
            ignore
              (Clouds.Object_manager.invoke sys.Clouds.om ~node ~thread_id:0
                 ~origin:None ~txn:None ~obj:acct ~entry:"balance" V.Unit);
            let rpcs0 = count mgr "atomicity/lock_rpcs" in
            let upgrades0 = count mgr "atomicity/lock_upgrades" in
            let stats = Sim.Stats.series mode in
            for _ = 1 to samples do
              Sim.Stats.add stats (time deposit)
            done;
            {
              mode;
              mean_ms = Sim.Stats.mean stats;
              lock_rpcs = count mgr "atomicity/lock_rpcs" - rpcs0;
              lock_upgrades = count mgr "atomicity/lock_upgrades" - upgrades0;
            })
          [
            ("s-thread", Clouds.Obj_class.S);
            ("lcp-thread", Clouds.Obj_class.Lcp);
            ("gcp-thread", Clouds.Obj_class.Gcp);
          ]
      in
      (* part B: one gcp transaction spanning k objects over the data
         servers *)
      let batcher =
        Clouds.Object_manager.create_object sys.Clouds.om ~class_name:"batcher"
          V.Unit
      in
      let spans =
        List.map
          (fun k ->
            let accounts =
              List.init k (fun i ->
                  Apps.Bank.open_account sys.Clouds.om
                    ~home:(1 + (i mod data_servers))
                    ~balance:0 ())
            in
            let arg = V.List (List.map V.of_sysname accounts) in
            (* warm pass *)
            ignore
              (Clouds.Object_manager.invoke sys.Clouds.om ~node ~thread_id:0
                 ~origin:None ~txn:None ~obj:batcher ~entry:"update_all" arg);
            let stats = Sim.Stats.series "span" in
            for _ = 1 to samples / 3 do
              Sim.Stats.add stats
                (time (fun () ->
                     ignore
                       (Clouds.Object_manager.invoke sys.Clouds.om ~node
                          ~thread_id:0 ~origin:None ~txn:None ~obj:batcher
                          ~entry:"update_all" arg)))
            done;
            (k, Sim.Stats.mean stats))
          [ 1; 2; 4; 8 ]
      in
      { modes; spans })

let to_json (r : result) =
  let open Obs.Export in
  let mode (m : mode_point) =
    Obj
      [
        ("mode", Str m.mode); ("mean_ms", Num m.mean_ms);
        ("throughput_per_s", Num (1000.0 /. m.mean_ms));
        ("lock_rpcs", int m.lock_rpcs);
        ("lock_upgrades", int m.lock_upgrades);
      ]
  in
  let span (k, mean_ms) =
    Obj
      [
        ("objects_touched", int k);
        ("servers_involved", int (min k data_servers));
        ("mean_ms", Num mean_ms);
      ]
  in
  Obj
    [ ("modes", Arr (List.map mode r.modes)); ("spans", Arr (List.map span r.spans)) ]
