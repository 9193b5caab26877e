(* Faults are decided per frame per destination at delivery time.
   Every random draw comes from one stream split off the engine's
   root RNG, and draws happen in event order, so a given seed always
   produces the same fault schedule. *)

type profile = {
  drop : float;
  dup : float;
  delay : Sim.Time.span;
  reorder : float;
  reorder_by : Sim.Time.span;
  burst : float;
  burst_len : int;
}

let pristine =
  {
    drop = 0.0;
    dup = 0.0;
    delay = 0;
    reorder = 0.0;
    reorder_by = 0;
    burst = 0.0;
    burst_len = 0;
  }

let check_profile p =
  let prob name v =
    if v < 0.0 || v > 1.0 then
      invalid_arg (Printf.sprintf "Fault: %s not a probability" name)
  in
  prob "drop" p.drop;
  prob "dup" p.dup;
  prob "reorder" p.reorder;
  prob "burst" p.burst;
  if p.delay < 0 || p.reorder_by < 0 then invalid_arg "Fault: negative span";
  if p.burst_len < 0 then invalid_arg "Fault: negative burst_len"

type filter = src:Address.t -> dst:Address.t -> Frame.t -> bool

type t = {
  eng : Sim.Engine.t;
  rng : Sim.Rng.t;
  mutable default_profile : profile;
  links : (Address.t * Address.t, profile) Hashtbl.t;
  bursts : (Address.t * Address.t, int ref) Hashtbl.t;
  cuts : (Address.t * Address.t, unit) Hashtbl.t;
  mutable filter : filter option;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
}

let create eng rng =
  {
    eng;
    rng;
    default_profile = pristine;
    links = Hashtbl.create 8;
    bursts = Hashtbl.create 8;
    cuts = Hashtbl.create 8;
    filter = None;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
  }

let set_default t p =
  check_profile p;
  t.default_profile <- p

let set_link t a b p =
  check_profile p;
  Hashtbl.replace t.links (a, b) p

let set_link_both t a b p =
  set_link t a b p;
  set_link t b a p

let set_drop_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.set_drop_probability";
  t.default_profile <- { t.default_profile with drop = p }

let set_filter t f = t.filter <- Some f
let clear_filter t = t.filter <- None

let cut t a b = Hashtbl.replace t.cuts (a, b) ()

let cut_both t a b =
  cut t a b;
  cut t b a

let heal t a b = Hashtbl.remove t.cuts (a, b)

let heal_both t a b =
  heal t a b;
  heal t b a

let partition_for t a b span =
  cut_both t a b;
  Sim.Engine.at t.eng
    (Sim.Time.add (Sim.Engine.now t.eng) span)
    (fun () -> heal_both t a b)

let partition_between t left right ~after ~for_ =
  let each f = List.iter (fun a -> List.iter (fun b -> f a b) right) left in
  let start = Sim.Time.add (Sim.Engine.now t.eng) after in
  Sim.Engine.at t.eng start (fun () -> each (cut_both t));
  Sim.Engine.at t.eng (Sim.Time.add start for_) (fun () -> each (heal_both t))

let profile_for t key =
  match Hashtbl.find_opt t.links key with
  | Some p -> p
  | None -> t.default_profile

let burst_state t key =
  match Hashtbl.find_opt t.bursts key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.bursts key r;
      r

(* The delays (in extra time past normal arrival) of every copy of
   the frame to deliver; [] means the frame is lost. *)
let plan t ~src ~dst frame =
  let key = (src, dst) in
  let drop () =
    t.dropped <- t.dropped + 1;
    []
  in
  if Hashtbl.mem t.cuts key then drop ()
  else
    let filtered =
      match t.filter with Some f -> not (f ~src ~dst frame) | None -> false
    in
    if filtered then drop ()
    else
      let p = profile_for t key in
      let b = burst_state t key in
      if !b > 0 then begin
        decr b;
        drop ()
      end
      else if p.burst > 0.0 && Sim.Rng.chance t.rng p.burst then begin
        b := max 0 (p.burst_len - 1);
        drop ()
      end
      else if p.drop > 0.0 && Sim.Rng.chance t.rng p.drop then drop ()
      else begin
        let jitter () =
          if p.delay > 0 then Sim.Rng.int t.rng (p.delay + 1) else 0
        in
        let extra =
          let base = jitter () in
          if p.reorder > 0.0 && Sim.Rng.chance t.rng p.reorder then begin
            t.reordered <- t.reordered + 1;
            base + p.reorder_by
          end
          else base
        in
        if p.dup > 0.0 && Sim.Rng.chance t.rng p.dup then begin
          t.duplicated <- t.duplicated + 1;
          [ extra; extra + jitter () ]
        end
        else [ extra ]
      end

let drops t = t.dropped
let duplicates t = t.duplicated
let reorders t = t.reordered
