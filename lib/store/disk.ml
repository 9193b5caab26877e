type config = {
  seek : Sim.Time.span;
  transfer_per_8k : Sim.Time.span;
  rot : Sim.Time.span;
}

let default_config =
  {
    seek = Sim.Time.of_ms_f 12.0;
    transfer_per_8k = Sim.Time.of_ms_f 2.5;
    rot = Sim.Time.of_ms_f 4.0;
  }

type t = {
  label : string;
  cfg : config;
  lock : Sim.Mutex.t;
  mutable queued : int;
  mutable at_tail : bool;
      (* head parked just past the log tail: the previous operation
         was an append and nothing has moved the arm since *)
  ops_c : Sim.Stats.counter;
  bytes_c : Sim.Stats.counter;
  busy_us : Sim.Stats.counter;
  qdepth : Sim.Stats.hist;
}

let create ?(config = default_config) label =
  {
    label;
    cfg = config;
    lock = Sim.Mutex.create ~label ();
    queued = 0;
    at_tail = false;
    ops_c = Sim.Stats.counter "disk/ops";
    bytes_c = Sim.Stats.counter "disk/bytes";
    busy_us = Sim.Stats.counter "disk/busy_us";
    qdepth = Sim.Stats.hist "disk/queue_depth";
  }

(* [positioning] is charged under the device lock, at service time,
   and updates the head-position state for the operation after it. *)
let io_positioned t ~positioning ~bytes =
  t.queued <- t.queued + 1;
  Sim.Stats.hadd t.qdepth (float_of_int t.queued);
  Fun.protect
    ~finally:(fun () -> t.queued <- t.queued - 1)
    (fun () ->
      Sim.Mutex.with_lock t.lock (fun () ->
          Sim.Stats.incr t.ops_c;
          Sim.Stats.incr_by t.bytes_c bytes;
          let transfer =
            int_of_float
              (float_of_int t.cfg.transfer_per_8k
              *. (float_of_int (max bytes 512) /. 8192.0))
          in
          let cost = positioning t + transfer in
          Sim.Stats.incr_by t.busy_us (cost / 1000);
          Sim.sleep cost))

let io t ~bytes =
  io_positioned t ~bytes ~positioning:(fun t ->
      t.at_tail <- false;
      t.cfg.seek)

let write = io
let read = io

(* A log append: if the head is still parked at the tail (the
   previous operation was also an append), the arm does not move and
   only the rotational wait to the next free sector is paid; any
   intervening read or write costs the append a full seek again. *)
let append t ~bytes =
  io_positioned t ~bytes ~positioning:(fun t ->
      let pos = if t.at_tail then t.cfg.rot else t.cfg.seek in
      t.at_tail <- true;
      pos)

let metrics t =
  Sim.Stats.
    [
      Counter t.ops_c;
      Counter t.bytes_c;
      Counter t.busy_us;
      Hist t.qdepth;
    ]
