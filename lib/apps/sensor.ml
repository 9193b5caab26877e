module Cl = Clouds.Cluster
module Om = Clouds.Object_manager
module V = Clouds.Value
module Mem = Clouds.Memory

let capacity = 64

(* data layout *)
let off_count = 0
let off_alarm = 8 (* string, up to ~80 bytes *)
let off_rng = 96
let off_stop = 104
let ring_base = 128

let sample_at ctx i =
  Mem.get_int ctx.Clouds.Ctx.mem (ring_base + (8 * (i mod capacity)))

let record ctx reading =
  let count = Mem.get_int ctx.Clouds.Ctx.mem off_count in
  Mem.set_int ctx.Clouds.Ctx.mem (ring_base + (8 * (count mod capacity))) reading;
  Mem.set_int ctx.Clouds.Ctx.mem off_count (count + 1)

(* The "device": a deterministic pseudo-random walk seeded in the
   object, standing in for real sensor hardware. *)
let next_reading ctx =
  let state = Mem.get_int ctx.Clouds.Ctx.mem off_rng in
  let state = (state * 2862933555777941757) + 3037000493 in
  Mem.set_int ctx.Clouds.Ctx.mem off_rng state;
  abs state mod 101

let daemon ~interval ~threshold ctx =
  let rec loop () =
    Sim.sleep interval;
    if Mem.get_int ctx.Clouds.Ctx.mem off_stop = 0 then begin
      ctx.Clouds.Ctx.compute (Sim.Time.us 100);
      let reading = next_reading ctx in
      record ctx reading;
      (if reading > threshold then begin
         let alarm = Mem.get_string ctx.Clouds.Ctx.mem off_alarm in
         match Ra.Sysname.of_string alarm with
         | Some obj ->
             ignore
               (ctx.Clouds.Ctx.invoke ~obj ~entry:"notify"
                  (V.Pair (V.of_sysname ctx.Clouds.Ctx.self, V.Int reading)))
         | None -> ()
       end);
      loop ()
    end
  in
  loop ()

let cls ~interval ~threshold =
  Clouds.Obj_class.define ~name:"sensor"
    ~constructor:(fun ctx arg ->
      Mem.set_int ctx.Clouds.Ctx.mem off_rng 987654321;
      match arg with
      | V.Str alarm -> Mem.set_string ctx.Clouds.Ctx.mem off_alarm alarm
      | _ -> Mem.set_string ctx.Clouds.Ctx.mem off_alarm "")
    ~daemons:[ ("sampler", daemon ~interval ~threshold) ]
    [
      Clouds.Obj_class.entry "latest" (fun ctx _ ->
          let count = Mem.get_int ctx.Clouds.Ctx.mem off_count in
          if count = 0 then V.Unit else V.Int (sample_at ctx (count - 1)));
      Clouds.Obj_class.entry "sample_count" (fun ctx _ ->
          V.Int (Mem.get_int ctx.Clouds.Ctx.mem off_count));
      Clouds.Obj_class.entry "history" (fun ctx arg ->
          let n = V.to_int arg in
          let count = Mem.get_int ctx.Clouds.Ctx.mem off_count in
          let n = min n (min count capacity) in
          let samples =
            List.init n (fun k -> V.Int (sample_at ctx (count - n + k)))
          in
          V.List samples);
      Clouds.Obj_class.entry "stop" (fun ctx _ ->
          Mem.set_int ctx.Clouds.Ctx.mem off_stop 1;
          V.Unit);
    ]

let register om ?(interval = Sim.Time.ms 50) ?(threshold = 90) () =
  let cl = Om.cluster om in
  if Cl.find_class cl "sensor" = None then
    Cl.register_class cl (cls ~interval ~threshold)

let create om ?alarm () =
  register om ();
  let arg =
    match alarm with
    | Some a -> V.Str (Ra.Sysname.to_string a)
    | None -> V.Str ""
  in
  Om.create_object om ~class_name:"sensor" arg

let latest om obj =
  match Om.call om obj "latest" V.Unit with
  | V.Int v -> Some v
  | V.Unit -> None
  | _ -> failwith "Sensor.latest: bad reply"

let sample_count om obj = V.to_int (Om.call om obj "sample_count" V.Unit)

let history om obj ~n =
  match Om.call om obj "history" (V.Int n) with
  | V.List l -> List.map V.to_int l
  | _ -> failwith "Sensor.history: bad reply"
