module Cl = Clouds.Cluster

type outcome = {
  value : Clouds.Value.t option;
  winner : int option;
  completed : int;
  killed : int;
  quorum_ok : bool;
  replicas_updated : int;
  thread_ms : float;
}

type pet_status = Running | Done of Clouds.Value.t | Failed

type pet = {
  index : int;
  thread : Clouds.Thread.t;
  started : Sim.Time.t;
  mutable finished : Sim.Time.t option;
  mutable status : pet_status;
}

(* Choose a live compute server for PET [i], spreading threads over
   distinct machines so one crash takes out at most one PET. *)
let compute_for cl i =
  (* a membership view, when one is running, vetoes nodes already
     condemned — no pet is scheduled onto a corpse that merely has
     not been garbage-collected from [alive] yet *)
  let nodes = Array.to_list cl.Cl.compute_nodes |> List.filter (Cl.usable cl) in
  match nodes with
  | [] -> None
  | _ :: _ -> Some (List.nth nodes (i mod List.length nodes)).Ra.Node.id

let run mgr ~group ~entry ~parallel ~quorum arg =
  if parallel < 1 then invalid_arg "Pet.run: parallel must be positive";
  if quorum < 1 || quorum > Replica.degree group then
    invalid_arg "Pet.run: quorum out of range";
  let om = Atomicity.Manager.object_manager mgr in
  let cl = Clouds.Object_manager.cluster om in
  let first_result : (int * Clouds.Value.t) option Sim.Ivar.t =
    Sim.Ivar.create ()
  in
  let failures = ref 0 in
  let start_failures = ref 0 in
  let pets =
    List.init parallel (fun i ->
        match compute_for cl i with
        | None ->
            incr start_failures;
            None
        | Some addr ->
            let obj = Replica.pick group i in
            let thread =
              Clouds.Thread.start om ~on:addr ~obj ~entry arg
            in
            Some { index = i; thread; started = Sim.now (); finished = None; status = Running })
    |> List.filter_map Fun.id
  in
  let launched = List.length pets in
  if launched = 0 then
    {
      value = None;
      winner = None;
      completed = 0;
      killed = 0;
      quorum_ok = false;
      replicas_updated = 0;
      thread_ms = 0.0;
    }
  else begin
    (* watchers: resolve on the first completion, or when everyone
       has failed *)
    List.iter
      (fun pet ->
        ignore
          (Sim.spawn "pet-watcher" (fun () ->
               match Clouds.Thread.try_join pet.thread with
               | Ok v ->
                   pet.status <- Done v;
                   pet.finished <- Some (Sim.now ());
                   ignore (Sim.Ivar.try_fill first_result (Some (pet.index, v)))
               | Error _ ->
                   pet.status <- Failed;
                   pet.finished <- Some (Sim.now ());
                   incr failures;
                   if !failures = launched then
                     ignore (Sim.Ivar.try_fill first_result None))))
      pets;
    match Sim.Ivar.read first_result with
    | None ->
        let thread_ms =
          List.fold_left
            (fun acc pet ->
              let fin = match pet.finished with Some f -> f | None -> Sim.now () in
              acc +. Sim.Time.to_ms_f (Sim.Time.diff fin pet.started))
            0.0 pets
        in
        {
          value = None;
          winner = None;
          completed = 0;
          killed = 0;
          quorum_ok = false;
          replicas_updated = 0;
          thread_ms;
        }
    | Some (_, _) ->
        (* abort the still-running threads before propagating so a
           laggard cannot scribble on a replica we just updated *)
        let killed = ref 0 in
        List.iter
          (fun pet ->
            if pet.status = Running then begin
              Clouds.Thread.kill pet.thread;
              Atomicity.Manager.abort_thread mgr
                ~thread_id:(Clouds.Thread.id pet.thread);
              pet.status <- Failed;
              pet.finished <- Some (Sim.now ());
              incr killed
            end)
          pets;
        (* choose a terminating thread among the completed ones;
           propagate its replica's state to a quorum *)
        let completed =
          List.filter (fun p -> match p.status with Done _ -> true | _ -> false) pets
        in
        let try_commit pet =
          let wi = pet.index mod Replica.degree group in
          let updated = ref 1 (* the winner's own replica *) in
          for j = 0 to Replica.degree group - 1 do
            if j <> wi && Replica.copy_state om group ~from_index:wi ~to_index:j
            then incr updated
          done;
          (!updated, !updated >= quorum)
        in
        let rec choose = function
          | [] -> (None, 0, false)
          | pet :: rest -> (
              let updated, ok = try_commit pet in
              if ok then (Some pet, updated, true)
              else
                match rest with
                | [] -> (Some pet, updated, false)
                | _ :: _ -> choose rest)
        in
        let chosen, replicas_updated, quorum_ok = choose completed in
        let thread_ms =
          List.fold_left
            (fun acc pet ->
              let fin = match pet.finished with Some f -> f | None -> Sim.now () in
              acc +. Sim.Time.to_ms_f (Sim.Time.diff fin pet.started))
            0.0 pets
        in
        {
          value =
            (match chosen with
            | Some { status = Done v; _ } -> Some v
            | Some _ | None -> None);
          winner = (match chosen with Some p -> Some p.index | None -> None);
          completed = List.length completed;
          killed = !killed;
          quorum_ok;
          replicas_updated;
          thread_ms;
        }
  end
