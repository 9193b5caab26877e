type config = {
  retry_initial : Sim.Time.span;
  max_attempts : int;
  selective_retransmit : bool;
}

let default_config =
  {
    retry_initial = Sim.Time.ms 50;
    max_attempts = 8;
    selective_retransmit = true;
  }

let frag_payload = 1400 (* max message bytes per fragment *)
let server_cache_ttl = Sim.Time.sec 5 (* reply retention for dedup *)
let retry_backoff = 2.0 (* timer multiplier per silent retry *)
let proc_cost = Sim.Time.us 590
let rto_min = Sim.Time.ms 2
let rto_max = Sim.Time.sec 4

type error = Timeout

type handler = src:Net.Address.t -> Packet.body -> Packet.body * int

type client_pending = {
  complete : Packet.body Sim.Ivar.t;  (* filled once, by [handle_reply] *)
  mutable reply_got : bool array;  (* sized on first reply fragment *)
  mutable reply_missing : int;  (* -1 until sized *)
  mutable reply_last : Sim.Time.t;  (* arrival of the latest new fragment *)
  mutable busy : bool;  (* server said it is working; be patient *)
  mutable quiet_since : Sim.Time.t;  (* first send, or the latest Busy *)
  mutable heard : bool;
      (* any feedback (reply fragment, Nack, Busy) since the last
         retransmission: silence means control packets are dying too,
         so the next retry escalates from a probe to the full burst *)
  dst : Net.Address.t;
  service : int;
  tid : Packet.tid;
  req_body : Packet.body;
  req_size : int;
  t_start : Sim.Time.t;  (* the first send *)
}

type server_state =
  | Accumulating of {
      got : bool array;
      mutable missing : int;
      mutable touched : Sim.Time.t;
          (* last fragment or probe seen; an abandoned partial burst
             is reaped [server_cache_ttl] after it goes quiet *)
      mutable reaper : Sim.Engine.timer;
          (* cancelled when the last fragment arrives *)
    }
  | In_progress
  | Done of {
      reply : Packet.body;
      reply_size : int;
      expiry : Sim.Engine.timer;  (* cancelled by the client's Ack *)
    }

(* Per-destination round-trip estimator (Jacobson/Karels): every
   call's retry timer, read per peer through [peer_stats].  All three
   fields are floats, so the record is flat and an update allocates
   nothing; [rto] always holds a whole number of ns. *)
type rto_state = {
  mutable srtt : float;  (* ns *)
  mutable rttvar : float;  (* ns *)
  mutable rto : float;  (* ns *)
}

(* Nothing walks a tid table, so the hash need only spread: the
   sequence number, with the origin mixed in, builds no pair and calls
   no runtime hash. *)
module Tid_table = Hashtbl.Make (struct
  type t = Packet.tid

  let equal (a : t) b = a.Packet.seq = b.Packet.seq && a.origin = b.origin
  let hash (t : t) = ((t.seq * 65599) + t.origin) land max_int
end)

module Int_table = Sim.Int_table

(* Who waits for a burst (see "transmission" below). *)
type owner =
  | Inline  (* the caller is still stepping the burst *)
  | Task of Sim.Engine.task
  | Caller of Sim.Engine.parked

type t = {
  ether : Net.Ethernet.t;
  nic : Net.Nic.t;
  address : Net.Address.t;
  group : int option;
  cfg : config;
  budget : Sim.Time.span;  (* [give_up_budget cfg] *)
  stall : Sim.Time.span;  (* [stall_after] the Ethernet *)
  mutable next_seq : int;
  clients : client_pending Tid_table.t;
  servers : server_state Tid_table.t;
  services : handler Int_table.t;
  rto : rto_state Int_table.t;
  retrans : Sim.Stats.counter;
  retrans_bytes : Sim.Stats.counter;
  nacks : Sim.Stats.counter;
  completed : Sim.Stats.counter;
  retrans_by : Sim.Stats.keyed;
  nacks_by : Sim.Stats.keyed;
  mutable on_frame : Net.Frame.t -> unit;  (* the NIC owner's handler *)
  mutable idle : burst array;  (* finished bursts, for reuse; see [finish] *)
  mutable nidle : int;
}

(* One message's fragments on their way to the wire; the fields from
   [dst] to [t0] describe the message and are set when the burst is
   taken, the rest track it.  A finished burst is kept for reuse with
   its sender and callbacks, which are allocated once. *)
and burst = {
  ep : t;
  tx : Net.Ethernet.sender;
  mutable dst : Net.Address.t;
  mutable service : int;
  mutable tid : Packet.tid;
  mutable kind : Packet.kind;
  mutable total_size : int;
  mutable body : Packet.body;
  mutable nfrags : int;
  mutable last : int;
  mutable held : bool array;
  mutable until : client_pending;
  mutable resent : bool;  (* count the payload in [retrans_bytes] *)
  mutable t0 : Sim.Time.t;
  mutable next : int;  (* the next fragment index to consider *)
  mutable frag : int;  (* the fragment on its way *)
  mutable frame : Net.Frame.t;  (* the fragment waiting to be ready *)
  mutable ev : Sim.Engine.timer;  (* the start or ready event, or the last *)
  mutable timed : bool;  (* [ev] is pending *)
  mutable owner : owner;
  mutable dead : bool;
  mutable finished : bool;
  mutable on_start : unit -> unit;
  mutable on_ready : unit -> unit;
  mutable on_sent : unit -> unit;
  mutable on_kill : unit -> bool;
  mutable on_task_kill : unit -> unit;
  mutable on_park : Sim.Engine.parked -> unit;
}

let server_cache_size t = Tid_table.length t.servers

let metrics t =
  Sim.Stats.
    [
      Counter t.retrans;
      Counter t.retrans_bytes;
      Counter t.nacks;
      Counter t.completed;
      Keyed t.retrans_by;
      Keyed t.nacks_by;
    ]

(* --- adaptive retransmission timeout -------------------------------- *)

(* One unambiguous transaction sample (Karn's rule).  Standard
   Jacobson/Karels constants: alpha 1/8, beta 1/4, RTO = SRTT + 4
   RTTVAR, clamped to [rto_min, rto_max]. *)
let note_rtt t ~dst span =
  let rtt = float_of_int span in
  let st =
    match Int_table.find_opt t.rto dst with
    | Some st ->
        st.rttvar <-
          (0.75 *. st.rttvar) +. (0.25 *. Float.abs (st.srtt -. rtt));
        st.srtt <- (0.875 *. st.srtt) +. (0.125 *. rtt);
        st
    | None ->
        let st = { srtt = rtt; rttvar = rtt /. 2.0; rto = 0.0 } in
        Int_table.replace t.rto dst st;
        st
  in
  let rto = int_of_float (st.srtt +. (4.0 *. st.rttvar)) in
  st.rto <- float_of_int (max rto_min (min rto_max rto))

(* A destination with no sample yet gets [retry_initial]. *)
let rto_for t dst =
  match Int_table.find_opt t.rto dst with
  | Some st -> int_of_float st.rto
  | None -> t.cfg.retry_initial

let backoff interval = int_of_float (float_of_int interval *. retry_backoff)

(* The give-up budget: the silence the classic fixed ladder allowed,
   [max_attempts] waits from [retry_initial], truncated as it was. *)
let give_up_budget cfg =
  let rec sum k interval =
    if k = 0 then 0 else interval + sum (k - 1) (backoff interval)
  in
  sum cfg.max_attempts cfg.retry_initial

(* A reply stream has stalled, rather than yielded the shared wire to
   other traffic, once quiet for four fragment gaps: the slowest of
   sender driver, wire and receiver driver for one full fragment. *)
let stall_after ether =
  let e = Net.Ethernet.config ether in
  let bytes = frag_payload + Packet.header_bytes + Net.Frame.header_bytes in
  4
  * max (Net.Ethernet.wire_time e bytes)
      ((e.cost_per_byte_ns * bytes)
      + max e.send_cost_per_frame e.recv_cost_per_frame)

type peer_stats = {
  peer : Net.Address.t;
  retrans : int;
  nacks : int;
  rto_ms : float;
}

let peer_stats t =
  let keys = Hashtbl.create 8 in
  let note (k, _) = Hashtbl.replace keys k () in
  Int_table.iter (fun k _ -> Hashtbl.replace keys k ()) t.rto;
  List.iter note (Sim.Stats.kitems t.retrans_by);
  List.iter note (Sim.Stats.kitems t.nacks_by);
  Hashtbl.fold (fun k () acc -> k :: acc) keys []
  |> List.sort Net.Address.compare
  |> List.map (fun peer ->
         {
           peer;
           retrans = Sim.Stats.kvalue t.retrans_by peer;
           nacks = Sim.Stats.kvalue t.nacks_by peer;
           rto_ms = Sim.Time.to_ms_f (rto_for t peer);
         })

(* --- transmission --------------------------------------------------- *)

(* A burst puts the fragments of one message on the wire as a chain
   of engine events.  Fragment [i] is ready once its host (DMA setup)
   cost has elapsed from the start of the burst, so the cost of
   fragment [i] overlaps the wire time of fragments [0..i-1]; then it
   takes its passage over the bus ({!Net.Ethernet.put}), and the next
   fragment follows when the bus is released.  Who waits for it:
   - nobody: a reply, Ack, Busy or Nack is a {!Sim.Engine.task} of the
     endpoint's group, started in an event of its own, so a crash of
     the machine stops it;
   - the calling process: a client's request or retransmission runs
     its first steps in the caller and then parks the caller, which
     resumes once the burst has left the host or its reply is in;
     the burst stops where the caller is killed.
   [held] marks the fragments the peer already holds (a selective
   retransmission sends only the others; [||] sends all) and [last]
   bounds the indices sent.  [until] stops the burst before its next
   fragment once the reply is complete. *)

(* [until] of a burst no reply can stop. *)
let no_call =
  {
    complete = Sim.Ivar.create ();
    reply_got = [||];
    reply_missing = -1;
    reply_last = 0;
    busy = false;
    quiet_since = 0;
    heard = false;
    dst = -1;
    service = -1;
    tid = { Packet.origin = -1; seq = -1 };
    req_body = Packet.Empty;
    req_size = 0;
    t_start = 0;
  }

let engine t = Net.Ethernet.engine t.ether

let frame_of b i =
  let pkt =
    {
      Packet.tid = b.tid;
      service = b.service;
      kind = b.kind;
      frag = i;
      nfrags = b.nfrags;
      total_size = b.total_size;
      body = b.body;
    }
  in
  Net.Frame.make ~src:b.ep.address ~dst:(Net.Frame.Unicast b.dst)
    ~payload_bytes:
      (Packet.frag_bytes ~frag_payload ~total_size:b.total_size i
      + Packet.header_bytes)
    (Packet.Ratp pkt)

(* Only a burst that finished is kept, up to [idle_bursts] per
   endpoint (enough for a call's request, reply and Ack; a server
   whose replies queue on the bus makes the rest afresh): nothing of
   it is pending then.  A killed burst finishes only when the bus
   reaches its sender after the kill, which is then idle too.  It
   goes back before its owner resumes, and the owner may take it
   again at once. *)
let idle_bursts = 4

let finish b =
  b.finished <- true;
  let t = b.ep and owner = b.owner in
  b.owner <- Inline;
  b.body <- Packet.Empty;
  b.held <- [||];
  b.until <- no_call;
  if Array.length t.idle = 0 then t.idle <- Array.make idle_bursts b;
  if t.nidle < idle_bursts then begin
    t.idle.(t.nidle) <- b;
    t.nidle <- t.nidle + 1
  end;
  match owner with
  | Inline -> ()
  | Task k -> Sim.Engine.retire (engine t) k
  | Caller p -> Sim.Engine.resume (engine t) p

let arm b time thunk =
  b.timed <- true;
  b.ev <- Sim.Engine.retime (engine b.ep) b.ev time thunk

let step b =
  let skip = Array.length b.held > 0 in
  while b.next <= b.last && skip && b.held.(b.next) do
    b.next <- b.next + 1
  done;
  if b.next > b.last || b.until.reply_missing = 0 then finish b
  else begin
    let i = b.next in
    b.next <- i + 1;
    b.frag <- i;
    let frame = frame_of b i in
    let eng = engine b.ep in
    let ready =
      Sim.Time.add b.t0
        (Net.Ethernet.host_send_cost (Net.Ethernet.config b.ep.ether) frame)
    in
    if Sim.Time.compare ready (Sim.Engine.now eng) > 0 then begin
      b.frame <- frame;
      arm b ready b.on_ready
    end
    else Net.Ethernet.put b.tx frame b.on_sent
  end

let start b () =
  b.timed <- false;
  step b

let ready b () =
  b.timed <- false;
  let frame = b.frame in
  b.frame <- Net.Frame.none;
  Net.Ethernet.put b.tx frame b.on_sent

let sent b () =
  if b.dead then finish b
  else begin
    if b.resent then
      Sim.Stats.incr_by b.ep.retrans_bytes
        (Packet.frag_bytes ~frag_payload ~total_size:b.total_size b.frag);
    step b
  end

(* The kill hook: stop where a killed process carrying the burst
   stopped (see {!Net.Ethernet.abort}). *)
let kill b () =
  b.dead <- true;
  if b.timed then begin
    Sim.Engine.cancel (engine b.ep) b.ev;
    b.timed <- false;
    true
  end
  else Net.Ethernet.abort b.tx

let fresh t =
  let b =
    {
      ep = t;
      tx = Net.Ethernet.sender t.ether;
      dst = 0;
      service = 0;
      tid = no_call.tid;
      kind = Packet.Ack;
      total_size = 0;
      body = Packet.Empty;
      nfrags = 0;
      last = 0;
      held = [||];
      until = no_call;
      resent = false;
      t0 = 0;
      next = 0;
      frag = 0;
      frame = Net.Frame.none;
      ev = Sim.Engine.no_timer;
      timed = false;
      owner = Inline;
      dead = false;
      finished = false;
      on_start = ignore;
      on_ready = ignore;
      on_sent = ignore;
      on_kill = (fun () -> true);
      on_task_kill = ignore;
      on_park = ignore;
    }
  in
  b.on_start <- start b;
  b.on_ready <- ready b;
  b.on_sent <- sent b;
  b.on_kill <- kill b;
  b.on_task_kill <- (fun () -> ignore (kill b ()));
  b.on_park <- (fun p -> b.owner <- Caller p);
  b

let burst ?(resent = false) ?(held = [||]) ?last ~until t ~dst ~service ~tid
    ~kind ~total_size body =
  let b =
    if t.nidle = 0 then fresh t
    else begin
      t.nidle <- t.nidle - 1;
      t.idle.(t.nidle)
    end
  in
  let nfrags = Packet.nfrags_of ~frag_payload total_size in
  b.dst <- dst;
  b.service <- service;
  b.tid <- tid;
  b.kind <- kind;
  b.total_size <- total_size;
  b.body <- body;
  b.nfrags <- nfrags;
  b.last <- Option.value last ~default:(nfrags - 1);
  b.held <- held;
  b.until <- until;
  b.resent <- resent;
  b.t0 <- Sim.Engine.now (engine t);
  b.next <- 0;
  b.dead <- false;
  b.finished <- false;
  b

(* A burst nobody waits for. *)
let send ?resent ?held ?last t ~dst ~service ~tid ~kind ~total_size body =
  let b =
    burst ?resent ?held ?last ~until:no_call t ~dst ~service ~tid ~kind
      ~total_size body
  in
  let eng = engine t in
  b.owner <- Task (Sim.Engine.task eng ~group:t.group b.on_task_kill);
  arm b (Sim.Engine.now eng) b.on_start

(* A burst of the calling client, which it carries: it returns once
   the burst has left the host (a client arms its retry timer only
   then), or early once the reply is in. *)
let send_waiting ?resent ?held ?last t pc ~kind ~total_size body =
  let b =
    burst ?resent ?held ?last ~until:pc t ~dst:pc.dst ~service:pc.service
      ~tid:pc.tid ~kind ~total_size body
  in
  step b;
  if not b.finished then Sim.Engine.Process.park b.on_kill b.on_park

let send_ack t ~dst ~tid ~service =
  send t ~dst ~service ~tid ~kind:Packet.Ack ~total_size:0 Packet.Empty

let control_size bits = Packet.bitmap_bytes (Array.length bits)

let send_control t ~dst ~tid ~service ~kind bits =
  send t ~dst ~service ~tid ~kind ~total_size:(control_size bits) ~last:0
    (Packet.Bitmap (Array.copy bits))

(* --- server side ---------------------------------------------------- *)

let schedule_cache_expiry t tid =
  let eng = Net.Ethernet.engine t.ether in
  Sim.Engine.timer eng
    (Sim.Time.add (Sim.Engine.now eng) server_cache_ttl)
    (fun () ->
      match Tid_table.find_opt t.servers tid with
      | Some (Done _) -> Tid_table.remove t.servers tid
      | Some (Accumulating _ | In_progress) | None -> ())

(* A request burst whose tail was lost and never retried must not pin
   its [Accumulating] entry forever: reap it once it has been quiet
   for [server_cache_ttl].  Fragments and probes refresh [touched],
   so a transaction the client is still retrying (even across long
   backoff intervals) survives. *)
let rec schedule_accumulation_expiry t tid =
  let eng = Net.Ethernet.engine t.ether in
  Sim.Engine.timer eng
    (Sim.Time.add (Sim.Engine.now eng) server_cache_ttl)
    (fun () ->
      match Tid_table.find_opt t.servers tid with
      | Some (Accumulating acc) ->
          let idle = Sim.Time.diff (Sim.Engine.now eng) acc.touched in
          if Sim.Time.compare idle server_cache_ttl >= 0 then
            Tid_table.remove t.servers tid
          else acc.reaper <- schedule_accumulation_expiry t tid
      | Some (In_progress | Done _) | None -> ())

let run_handler t ~(src : Net.Address.t) ~tid ~service body =
  ignore
    (Sim.Engine.spawn
       (Net.Ethernet.engine t.ether)
       ?group:t.group "ratp-handler"
       (fun () ->
         match Int_table.find_opt t.services service with
         | None ->
             (* unknown service: drop; the client will time out *)
             Tid_table.remove t.servers tid
         | Some handler ->
             (* run under the caller's span so server-side spans
                join the client's trace *)
             Obs.Tracer.accept ~origin:tid.Packet.origin ~seq:tid.Packet.seq
               (fun () ->
                 Sim.sleep proc_cost;
                 let reply, reply_size = handler ~src body in
                 let expiry = schedule_cache_expiry t tid in
                 Tid_table.replace t.servers tid
                   (Done { reply; reply_size; expiry });
                 Sim.sleep proc_cost;
                 send t ~dst:src ~service ~tid ~kind:Packet.Reply
                   ~total_size:reply_size reply)))

let handle_request t ~src (pkt : Packet.t) =
  match Tid_table.find_opt t.servers pkt.tid with
  | Some (Done { reply; reply_size; _ }) ->
      (* duplicate request: retransmit the cached reply once per
         request burst (triggered by fragment 0) *)
      if pkt.frag = 0 then begin
        Sim.Stats.kincr t.retrans_by src;
        send ~resent:true t ~dst:src ~service:pkt.service ~tid:pkt.tid
          ~kind:Packet.Reply ~total_size:reply_size reply
      end
  | Some In_progress ->
      (* tell the retransmitting client the handler is still running
         so it does not give up on a long operation; a Busy carries
         no payload *)
      if pkt.frag = 0 then
        send t ~dst:src ~service:pkt.service ~tid:pkt.tid ~kind:Packet.Busy
          ~total_size:0 Packet.Empty
  | Some (Accumulating acc) ->
      acc.touched <- Sim.Engine.now (engine t);
      if not acc.got.(pkt.frag) then begin
        acc.got.(pkt.frag) <- true;
        acc.missing <- acc.missing - 1;
        if acc.missing = 0 then begin
          Sim.Engine.cancel (Net.Ethernet.engine t.ether) acc.reaper;
          Tid_table.replace t.servers pkt.tid In_progress;
          run_handler t ~src ~tid:pkt.tid ~service:pkt.service pkt.body
        end
      end
  | None ->
      if pkt.nfrags = 1 then begin
        Tid_table.replace t.servers pkt.tid In_progress;
        run_handler t ~src ~tid:pkt.tid ~service:pkt.service pkt.body
      end
      else begin
        let got = Array.make pkt.nfrags false in
        got.(pkt.frag) <- true;
        let reaper = schedule_accumulation_expiry t pkt.tid in
        Tid_table.replace t.servers pkt.tid
          (Accumulating
             {
               got;
               missing = pkt.nfrags - 1;
               touched = Sim.Engine.now (engine t);
               reaper;
             })
      end

(* The fragments of a [total_size] message that a peer's bitmap says
   it holds; a bitmap of the wrong size (or none) means the peer holds
   no state, so none ([||]).  [all_held] is true when it lacks
   nothing. *)
let held_frags ~total_size body =
  match body with
  | Packet.Bitmap got
    when Array.length got = Packet.nfrags_of ~frag_payload total_size ->
      got
  | _ -> [||]

let all_held held = Array.length held > 0 && Array.for_all Fun.id held

(* A retransmit probe asks "what are you missing?".  The answer
   depends on where the transaction stands:
   - reply cached: resend only the reply fragments the probe's bitmap
     says the client lacks (all of them if the bitmap is absent);
   - handler running: Busy, as for a duplicate request;
   - request incomplete: Nack carrying our received-fragment bitmap;
   - no state at all (whole burst lost, or reaped): Nack with an
     empty bitmap, which the client reads as "resend everything". *)
let handle_probe t ~src (pkt : Packet.t) =
  match Tid_table.find_opt t.servers pkt.tid with
  | Some (Done { reply; reply_size; _ }) ->
      let held = held_frags ~total_size:reply_size pkt.body in
      if not (all_held held) then begin
        Sim.Stats.kincr t.retrans_by src;
        send ~resent:true ~held t ~dst:src ~service:pkt.service ~tid:pkt.tid
          ~kind:Packet.Reply ~total_size:reply_size reply
      end
  | Some In_progress ->
      send t ~dst:src ~service:pkt.service ~tid:pkt.tid ~kind:Packet.Busy
        ~total_size:0 Packet.Empty
  | Some (Accumulating acc) ->
      acc.touched <- Sim.Engine.now (engine t);
      Sim.Stats.incr t.nacks;
      Sim.Stats.kincr t.nacks_by src;
      send_control t ~dst:src ~tid:pkt.tid ~service:pkt.service
        ~kind:Packet.Nack acc.got
  | None ->
      Sim.Stats.incr t.nacks;
      Sim.Stats.kincr t.nacks_by src;
      send_control t ~dst:src ~tid:pkt.tid ~service:pkt.service
        ~kind:Packet.Nack [||]

(* --- client side ---------------------------------------------------- *)

let handle_reply t (pkt : Packet.t) =
  match Tid_table.find_opt t.clients pkt.tid with
  | None -> () (* transaction already completed or abandoned *)
  | Some pc ->
      pc.heard <- true;
      if pc.reply_missing = -1 then begin
        pc.reply_got <- Array.make pkt.nfrags false;
        pc.reply_missing <- pkt.nfrags
      end;
      if not pc.reply_got.(pkt.frag) then begin
        pc.reply_got.(pkt.frag) <- true;
        pc.reply_missing <- pc.reply_missing - 1;
        pc.reply_last <- Sim.Engine.now (engine t);
        if pc.reply_missing = 0 then Sim.Ivar.fill pc.complete pkt.body
      end

(* The server told us which request fragments it is missing; resend
   exactly those.  A bitmap of the wrong size (or none) means the
   server lost all state: resend the full burst. *)
let handle_nack t (pkt : Packet.t) =
  match Tid_table.find_opt t.clients pkt.tid with
  | None -> ()
  | Some pc ->
      pc.heard <- true;
      let held = held_frags ~total_size:pc.req_size pkt.body in
      if not (all_held held) then
        send ~resent:true ~held t ~dst:pc.dst ~service:pc.service
          ~tid:pkt.tid ~kind:Packet.Request ~total_size:pc.req_size
          pc.req_body

let handle_packet t ~src (pkt : Packet.t) =
  match pkt.kind with
  | Packet.Request -> handle_request t ~src pkt
  | Packet.Reply -> handle_reply t pkt
  | Packet.Ack ->
      (match Tid_table.find_opt t.servers pkt.tid with
      | Some (Done { expiry; _ }) ->
          Sim.Engine.cancel (engine t) expiry
      | Some (Accumulating _ | In_progress) | None -> ());
      Tid_table.remove t.servers pkt.tid
  | Packet.Probe -> handle_probe t ~src pkt
  | Packet.Nack -> handle_nack t pkt
  | Packet.Busy -> (
      match Tid_table.find_opt t.clients pkt.tid with
      | Some pc ->
          pc.busy <- true;
          pc.heard <- true;
          pc.quiet_since <- Sim.Engine.now (engine t)
      | None -> ())

let receive t (frame : Net.Frame.t) =
  match frame.payload with
  | Packet.Ratp pkt -> handle_packet t ~src:frame.src pkt
  | _ -> ()

let create ether ~addr ?group ?(config = default_config) () =
  let nic = Net.Ethernet.attach ether addr in
  let t =
    {
      ether;
      nic;
      address = addr;
      group;
      cfg = config;
      budget = give_up_budget config;
      stall = stall_after ether;
      next_seq = 0;
      clients = Tid_table.create 16;
      servers = Tid_table.create 16;
      services = Int_table.create 8;
      rto = Int_table.create 8;
      retrans = Sim.Stats.counter "ratp/retrans";
      retrans_bytes = Sim.Stats.counter "ratp/retrans_bytes";
      nacks = Sim.Stats.counter "ratp/nacks";
      completed = Sim.Stats.counter "ratp/transactions";
      retrans_by = Sim.Stats.keyed "ratp/retrans_by";
      nacks_by = Sim.Stats.keyed "ratp/nacks_by";
      on_frame = ignore;
      idle = [||];
      nidle = 0;
    }
  in
  t.on_frame <- receive t;
  Net.Nic.listen nic ~group t.on_frame;
  t

let serve t ~service handler = Int_table.replace t.services service handler

let restart t =
  (* transaction state dies with the machine; the sequence space and
     the RTT estimators survive — reusing a tid would defeat the
     duplicate-suppression cache of servers that remember us, and
     path round-trip times do not change because we crashed *)
  Tid_table.reset t.clients;
  Tid_table.reset t.servers;
  (* a fresh receive; [listen] also stops the previous one when
     [restart] is called without a crash *)
  Net.Nic.listen t.nic ~group:t.group t.on_frame

(* --- client side: one transaction --------------------------------- *)

(* Retransmission: under [selective_retransmit] a timeout sends a
   1-frame probe and lets the server's answer drive exactly the
   missing fragments back onto the wire.  Two exceptions fall back to
   the legacy full burst: a single-fragment request with no reply yet
   (the request fragment *is* the cheapest possible probe, and the
   retried packet stream is bit-identical to the full-burst path), and
   a request-phase retry round that produced no feedback at all —
   when probes and Nacks are dying too (bursty loss, dead server),
   resending data is the only move that can make progress.  Once any
   reply fragment has arrived the request is known complete, so the
   escalation is pointless: a resent burst could only trigger the
   server's full cached-reply resend, while a probe pulls exactly the
   missing reply fragments. *)
let rec retransmit (t : t) pc ~sends interval =
  let heard = pc.heard in
  pc.heard <- false;
  Sim.Stats.incr t.retrans;
  Sim.Stats.kincr t.retrans_by pc.dst;
  if
    t.cfg.selective_retransmit
    && (sends = 1 || heard || pc.reply_missing >= 0)
    && not
         (Packet.nfrags_of ~frag_payload pc.req_size = 1
         && pc.reply_missing = -1)
  then
    send_waiting t pc ~kind:Packet.Probe ~last:0
      ~total_size:(control_size pc.reply_got)
      (Packet.Bitmap (Array.copy pc.reply_got))
  else
    send_waiting ~resent:true t pc ~kind:Packet.Request
      ~total_size:pc.req_size pc.req_body;
  await t pc ~sends interval interval

(* The retry timer is the learned RTO, armed once the attempt's burst
   has left the host and doubled on every silent round.  Giving up is
   a budget of silence since the first send or the latest Busy; the
   last wait is clamped to what is left of it.  A timer that fires
   while the reply is still streaming in (an RTO learned from small
   calls undercuts a long reply's wire time) rechecks later instead of
   probing for fragments that are in flight.  [sends] counts
   retransmissions so far. *)
and await (t : t) pc ~sends interval wait =
  let deadline = Sim.Time.add pc.quiet_since t.budget in
  let left = Sim.Time.diff deadline (Sim.now ()) in
  match Sim.Ivar.read_timeout pc.complete (max 0 (min wait left)) with
  | Some reply ->
      (* Karn's rule, except that a Busy (which moved the silence
         clock) proves the reply answers the original request *)
      if sends = 0 || pc.quiet_since > pc.t_start then
        note_rtt t ~dst:pc.dst (Sim.Time.diff (Sim.now ()) pc.t_start);
      Sim.sleep proc_cost;
      send_ack t ~dst:pc.dst ~tid:pc.tid ~service:pc.service;
      Sim.Stats.incr t.completed;
      Ok reply
  | None ->
      if pc.busy then begin
        (* the server is working on it: keep waiting without backing
           off (deadlock breaking is the caller's job, e.g.
           abort-after-timeout) *)
        pc.busy <- false;
        retransmit t pc ~sends:(sends + 1) interval
      end
      else if Sim.Time.compare (Sim.now ()) deadline >= 0 then Error Timeout
      else if
        pc.reply_missing > 0
        && Sim.Time.diff (Sim.now ()) pc.reply_last < t.stall
      then await t pc ~sends interval t.stall
      else retransmit t pc ~sends:(sends + 1) (backoff interval)

let exchange t (pc : client_pending) =
  send_waiting t pc ~kind:Packet.Request ~total_size:pc.req_size pc.req_body;
  let rto = rto_for t pc.dst in
  await t pc ~sends:0 rto rto

(* The span covers the whole blocking exchange (send, retries, reply);
   [offer] lets the server's handler process parent its spans under
   this call via the transaction id — a side-channel table, nothing
   on the wire. *)
let close t (pc : client_pending) span =
  Obs.Tracer.retract ~origin:t.address ~seq:pc.tid.seq;
  Obs.Tracer.finish span;
  Tid_table.remove t.clients pc.tid

let call t ~dst ~service ~size body =
  Sim.sleep proc_cost;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tid = { Packet.origin = t.address; seq } in
  let now = Sim.now () in
  let pc =
    {
      complete = Sim.Ivar.create ~label:"ratp-reply" ();
      reply_got = [||];
      reply_missing = -1;
      reply_last = Sim.Time.zero;
      busy = false;
      quiet_since = now;
      heard = false;
      dst;
      service;
      tid;
      req_body = body;
      req_size = size;
      t_start = now;
    }
  in
  Tid_table.replace t.clients tid pc;
  let span = Obs.Tracer.start ~node:t.address "rpc" in
  Obs.Tracer.offer ~origin:t.address ~seq;
  match exchange t pc with
  | r ->
      close t pc span;
      r
  | exception e ->
      close t pc span;
      raise e
