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
  req_body : Packet.body;
  req_size : int;
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
   call's retry timer, read per peer through [peer_stats]. *)
type rto_state = {
  mutable srtt : float;  (* ns *)
  mutable rttvar : float;  (* ns *)
  mutable rto : Sim.Time.span;
}

module Tid_table = Hashtbl.Make (struct
  type t = Packet.tid

  let equal (a : t) b = a.Packet.seq = b.Packet.seq && a.origin = b.origin
  let hash (t : t) = Hashtbl.hash (t.origin, t.seq)
end)

type t = {
  ether : Net.Ethernet.t;
  nic : Net.Nic.t;
  address : Net.Address.t;
  group : int option;
  cfg : config;
  mutable next_seq : int;
  clients : client_pending Tid_table.t;
  servers : server_state Tid_table.t;
  services : (int, handler) Hashtbl.t;
  rto : (Net.Address.t, rto_state) Hashtbl.t;
  retrans : Sim.Stats.counter;
  retrans_bytes : Sim.Stats.counter;
  nacks : Sim.Stats.counter;
  completed : Sim.Stats.counter;
  retrans_by : Sim.Stats.keyed;
  nacks_by : Sim.Stats.keyed;
  mutable rx_pid : Sim.Engine.pid;
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
    match Hashtbl.find_opt t.rto dst with
    | Some st ->
        st.rttvar <-
          (0.75 *. st.rttvar) +. (0.25 *. Float.abs (st.srtt -. rtt));
        st.srtt <- (0.875 *. st.srtt) +. (0.125 *. rtt);
        st
    | None ->
        let st = { srtt = rtt; rttvar = rtt /. 2.0; rto = 0 } in
        Hashtbl.replace t.rto dst st;
        st
  in
  let rto = int_of_float (st.srtt +. (4.0 *. st.rttvar)) in
  st.rto <- max rto_min (min rto_max rto)

(* A destination with no sample yet gets [retry_initial]. *)
let rto_for t dst =
  match Hashtbl.find_opt t.rto dst with
  | Some st -> st.rto
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
let stall_after t =
  let e = Net.Ethernet.config t.ether in
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
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t.rto;
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

(* One tx process per *message*, not per fragment: a single loop
   pushes every listed fragment, overlapping the host (DMA setup)
   cost of fragment [i] with the wire time of fragments [0..i-1] as
   the old process-per-fragment path did, without paying an
   effect-handler setup per fragment (an 8 K transfer used to spawn
   six).  [frags] is the fragment indices to put on the wire — the
   full burst on first transmission, only the missing ones on a
   selective retransmission.  With [~until] the calling process
   carries the burst and returns once it has left the host (a client
   arms its retry timer only then), or early once [until ()] holds
   (the reply is in).  [~resent] counts payload in [retrans_bytes]. *)
let send_frag_list ?until ?(resent = false) t ~dst ~service ~tid ~kind
    ~total_size body frags =
  let n = Packet.nfrags_of ~frag_payload total_size in
  let frag_size i = Packet.frag_bytes ~frag_payload ~total_size i in
  let frame_for i =
    let pkt =
      { Packet.tid; service; kind; frag = i; nfrags = n; total_size; body }
    in
    Net.Frame.make ~src:t.address ~dst:(Net.Frame.Unicast dst)
      ~payload_bytes:(frag_size i + Packet.header_bytes)
      (Packet.Ratp pkt)
  in
  let burst stop =
    let cfg = Net.Ethernet.config t.ether in
    let t0 = Sim.now () in
    let rec go = function
      | i :: rest when not (stop ()) ->
          let frame = frame_for i in
          (* the host is ready to hand fragment [i] to the wire once
             its own driver cost has elapsed from the start of the
             burst; by then the bus is usually still busy with the
             previous fragment, so the cost is hidden *)
          let ready =
            Sim.Time.add t0 (Net.Ethernet.host_send_cost cfg frame)
          in
          let now = Sim.now () in
          if Sim.Time.compare ready now > 0 then
            Sim.sleep (Sim.Time.diff ready now);
          Net.Ethernet.transmit_prepared t.ether frame;
          if resent then Sim.Stats.incr_by t.retrans_bytes (frag_size i);
          go rest
      | _ -> ()
    in
    go frags
  in
  match until with
  | Some stop -> burst stop
  | None ->
      ignore
        (Sim.Engine.spawn
           (Net.Ethernet.engine t.ether)
           ?group:t.group "ratp-tx"
           (fun () -> burst (fun () -> false)))

let send_fragments ?until ?resent t ~dst ~service ~tid ~kind ~total_size body =
  let n = Packet.nfrags_of ~frag_payload total_size in
  send_frag_list ?until ?resent t ~dst ~service ~tid ~kind ~total_size body
    (List.init n Fun.id)

(* Acks ride the same prepared-transmit path as every other packet
   (one "ratp-tx" process with identical timing) instead of a
   dedicated "ratp-ack" process calling the blocking transmit. *)
let send_ack t ~dst ~tid ~service =
  send_fragments t ~dst ~service ~tid ~kind:Packet.Ack ~total_size:0
    Packet.Empty

let send_control ?until t ~dst ~tid ~service ~kind bits =
  send_frag_list ?until t ~dst ~service ~tid ~kind
    ~total_size:(Packet.bitmap_bytes (Array.length bits))
    (Packet.Bitmap (Array.copy bits))
    [ 0 ]

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
         match Hashtbl.find_opt t.services service with
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
                 send_fragments t ~dst:src ~service ~tid ~kind:Packet.Reply
                   ~total_size:reply_size reply)))

let handle_request t ~src (pkt : Packet.t) =
  match Tid_table.find_opt t.servers pkt.tid with
  | Some (Done { reply; reply_size; _ }) ->
      (* duplicate request: retransmit the cached reply once per
         request burst (triggered by fragment 0) *)
      if pkt.frag = 0 then begin
        Sim.Stats.kincr t.retrans_by src;
        send_fragments ~resent:true t ~dst:src ~service:pkt.service
          ~tid:pkt.tid ~kind:Packet.Reply ~total_size:reply_size reply
      end
  | Some In_progress ->
      (* tell the retransmitting client the handler is still running
         so it does not give up on a long operation; a Busy carries
         no payload *)
      if pkt.frag = 0 then
        send_fragments t ~dst:src ~service:pkt.service ~tid:pkt.tid
          ~kind:Packet.Busy ~total_size:0 Packet.Empty
  | Some (Accumulating acc) ->
      acc.touched <- Sim.Engine.now (Net.Ethernet.engine t.ether);
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
               touched = Sim.Engine.now (Net.Ethernet.engine t.ether);
               reaper;
             })
      end

(* The fragments of a [total_size] message that a peer's bitmap says
   it lacks; a bitmap of the wrong size (or none) means the peer holds
   no state, so all of them. *)
let missing_frags ~total_size body =
  let n = Packet.nfrags_of ~frag_payload total_size in
  match body with
  | Packet.Bitmap got when Array.length got = n ->
      List.filter (fun i -> not got.(i)) (List.init n Fun.id)
  | _ -> List.init n Fun.id

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
      let missing = missing_frags ~total_size:reply_size pkt.body in
      if missing <> [] then begin
        Sim.Stats.kincr t.retrans_by src;
        send_frag_list ~resent:true t ~dst:src ~service:pkt.service
          ~tid:pkt.tid ~kind:Packet.Reply ~total_size:reply_size reply missing
      end
  | Some In_progress ->
      send_fragments t ~dst:src ~service:pkt.service ~tid:pkt.tid
        ~kind:Packet.Busy ~total_size:0 Packet.Empty
  | Some (Accumulating acc) ->
      acc.touched <- Sim.Engine.now (Net.Ethernet.engine t.ether);
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
        pc.reply_last <- Sim.now ();
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
      let missing = missing_frags ~total_size:pc.req_size pkt.body in
      if missing <> [] then
        send_frag_list ~resent:true t ~dst:pc.dst ~service:pc.service
          ~tid:pkt.tid ~kind:Packet.Request ~total_size:pc.req_size
          pc.req_body missing

let handle_packet t ~src (pkt : Packet.t) =
  match pkt.kind with
  | Packet.Request -> handle_request t ~src pkt
  | Packet.Reply -> handle_reply t pkt
  | Packet.Ack ->
      (match Tid_table.find_opt t.servers pkt.tid with
      | Some (Done { expiry; _ }) ->
          Sim.Engine.cancel (Net.Ethernet.engine t.ether) expiry
      | Some (Accumulating _ | In_progress) | None -> ());
      Tid_table.remove t.servers pkt.tid
  | Packet.Probe -> handle_probe t ~src pkt
  | Packet.Nack -> handle_nack t pkt
  | Packet.Busy -> (
      match Tid_table.find_opt t.clients pkt.tid with
      | Some pc ->
          pc.busy <- true;
          pc.heard <- true;
          pc.quiet_since <- Sim.now ()
      | None -> ())

let rec rx_loop t =
  let frame = Net.Nic.recv t.nic in
  (match frame.Net.Frame.payload with
  | Packet.Ratp pkt -> handle_packet t ~src:frame.Net.Frame.src pkt
  | _ -> ());
  rx_loop t

let create ether ~addr ?group ?(config = default_config) () =
  let nic = Net.Ethernet.attach ether addr in
  let t =
    {
      ether;
      nic;
      address = addr;
      group;
      cfg = config;
      next_seq = 0;
      clients = Tid_table.create 16;
      servers = Tid_table.create 16;
      services = Hashtbl.create 8;
      rto = Hashtbl.create 8;
      retrans = Sim.Stats.counter "ratp/retrans";
      retrans_bytes = Sim.Stats.counter "ratp/retrans_bytes";
      nacks = Sim.Stats.counter "ratp/nacks";
      completed = Sim.Stats.counter "ratp/transactions";
      retrans_by = Sim.Stats.keyed "ratp/retrans_by";
      nacks_by = Sim.Stats.keyed "ratp/nacks_by";
      rx_pid = 0;
    }
  in
  let eng = Net.Ethernet.engine ether in
  t.rx_pid <-
    Sim.Engine.spawn eng ?group
      (Printf.sprintf "ratp-rx-%d" addr)
      (fun () -> rx_loop t);
  t

let serve t ~service handler = Hashtbl.replace t.services service handler

let restart t =
  (* transaction state dies with the machine; the sequence space and
     the RTT estimators survive — reusing a tid would defeat the
     duplicate-suppression cache of servers that remember us, and
     path round-trip times do not change because we crashed *)
  Tid_table.reset t.clients;
  Tid_table.reset t.servers;
  let eng = Net.Ethernet.engine t.ether in
  (* the previous rx loop is usually already dead (group-killed by the
     machine crash), but when [restart] is called on its own we must
     not leave two rx loops racing on the NIC *)
  Sim.Engine.kill eng t.rx_pid;
  t.rx_pid <-
    Sim.Engine.spawn eng ?group:t.group
      (Printf.sprintf "ratp-rx-%d" t.address)
      (fun () -> rx_loop t)

let call t ~dst ~service ~size body =
  Sim.sleep proc_cost;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tid = { Packet.origin = t.address; seq } in
  let pc =
    {
      complete = Sim.Ivar.create ~label:"ratp-reply" ();
      reply_got = [||];
      reply_missing = -1;
      reply_last = Sim.Time.zero;
      busy = false;
      quiet_since = Sim.now ();
      heard = false;
      dst;
      service;
      req_body = body;
      req_size = size;
    }
  in
  Tid_table.replace t.clients tid pc;
  let req_nfrags = Packet.nfrags_of ~frag_payload size in
  (* The span covers the whole blocking exchange (send, retries,
     reply); [offer] lets the server's handler process parent its
     spans under this call via the transaction id — a side-channel
     table, nothing on the wire. *)
  let span = Obs.Tracer.start ~node:t.address "rpc" in
  Obs.Tracer.offer ~origin:t.address ~seq;
  Fun.protect
    ~finally:(fun () ->
      Obs.Tracer.retract ~origin:t.address ~seq;
      Obs.Tracer.finish span;
      Tid_table.remove t.clients tid)
    (fun () ->
      let t_start = pc.quiet_since in
      (* Retransmission: under [selective_retransmit] a timeout sends
         a 1-frame probe and lets the server's answer drive exactly
         the missing fragments back onto the wire.  Two exceptions
         fall back to the legacy full burst: a single-fragment
         request with no reply yet (the request fragment *is* the
         cheapest possible probe, and the retried packet stream is
         bit-identical to the full-burst path), and a request-phase
         retry round that produced no feedback at all — when probes
         and Nacks are dying too (bursty loss, dead server),
         resending data is the only move that can make progress.
         Once any reply fragment has arrived the request is known
         complete, so the escalation is pointless: a resent burst
         could only trigger the server's full cached-reply resend,
         while a probe pulls exactly the missing reply fragments. *)
      let replied () = pc.reply_missing = 0 in
      let budget = give_up_budget t.cfg in
      let rec retransmit ~sends interval =
        let heard = pc.heard in
        pc.heard <- false;
        Sim.Stats.incr t.retrans;
        Sim.Stats.kincr t.retrans_by dst;
        if
          t.cfg.selective_retransmit
          && (sends = 1 || heard || pc.reply_missing >= 0)
          && not (req_nfrags = 1 && pc.reply_missing = -1)
        then
          send_control ~until:replied t ~dst ~tid ~service ~kind:Packet.Probe
            pc.reply_got
        else
          send_fragments ~until:replied ~resent:true t ~dst ~service ~tid
            ~kind:Packet.Request ~total_size:size body;
        await ~sends interval interval
      (* The retry timer is the learned RTO, armed once the attempt's
         burst has left the host and doubled on every silent round.
         Giving up is a budget of silence since the first send or the
         latest Busy; the last wait is clamped to what is left of it.
         A timer that fires while the reply is still streaming in (an
         RTO learned from small calls undercuts a long reply's wire
         time) rechecks later instead of probing for fragments that
         are in flight.  [sends] counts retransmissions so far. *)
      and await ~sends interval wait =
        let deadline = Sim.Time.add pc.quiet_since budget in
        let left = Sim.Time.diff deadline (Sim.now ()) in
        match Sim.Ivar.read_timeout pc.complete (max 0 (min wait left)) with
        | Some reply ->
            (* Karn's rule, except that a Busy (which moved the silence
               clock) proves the reply answers the original request *)
            if sends = 0 || pc.quiet_since > t_start then
              note_rtt t ~dst (Sim.Time.diff (Sim.now ()) t_start);
            Sim.sleep proc_cost;
            send_ack t ~dst ~tid ~service;
            Sim.Stats.incr t.completed;
            Ok reply
        | None ->
            if pc.busy then begin
              (* the server is working on it: keep waiting without
                 backing off (deadlock breaking is the caller's job,
                 e.g. abort-after-timeout) *)
              pc.busy <- false;
              retransmit ~sends:(sends + 1) interval
            end
            else if Sim.Time.compare (Sim.now ()) deadline >= 0 then
              Error Timeout
            else
              let stall = stall_after t in
              if
                pc.reply_missing > 0
                && Sim.Time.diff (Sim.now ()) pc.reply_last < stall
              then await ~sends interval stall
              else retransmit ~sends:(sends + 1) (backoff interval)
      in
      send_fragments ~until:replied t ~dst ~service ~tid ~kind:Packet.Request
        ~total_size:size body;
      let rto = rto_for t dst in
      await ~sends:0 rto rto)
