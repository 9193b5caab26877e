exception Segv of int
exception Write_protect of int

type frame = {
  mutable mode : Partition.mode;
  data : bytes;  (* always Page.size long *)
  mutable dirty : bool;
  mutable last_used : int;  (* logical access clock, for LRU *)
  mutable base : bytes option;
      (* twin: snapshot of [data] as fetched, kept only for segments
         in a relaxed consistency mode.  Release-mode flushes diff
         against it so concurrent writers to disjoint bytes of one
         page don't clobber each other; commutative flushes encode
         their merge delta against it. *)
  mutable base_stamp : int;
      (* node-unique id of the twin snapshot, never reused (a fresh
         one per [snapshot_base]).  Commutative flushes send it as the
         idempotency key for their delta: a re-sent flush repeats the
         stamp only while the twin it diffed against is unchanged. *)
}

type t = {
  params : Params.t;
  cpu : Cpu.t;
  max_frames : int;
  mutable access_clock : int;
  mutable resolver : Sysname.t -> Partition.t;
  mutable consistency : Sysname.t -> Partition.consistency;
  frames : (Sysname.t * int, frame) Hashtbl.t;
  inflight : (Sysname.t * int, unit Sim.Ivar.t) Hashtbl.t;
  poisoned : (Sysname.t * int, unit) Hashtbl.t;
  mutable hook : (Sysname.t -> int -> Partition.mode -> unit) option;
  mutable twin_clock : int;  (* allocator for [base_stamp] *)
  mutable faults : int;
  mutable upgrades : int;
  mutable evictions : int;
}

let create ?(max_frames = max_int) ~params ~cpu () =
  if max_frames < 1 then invalid_arg "Mmu.create: max_frames must be positive";
  {
    params;
    cpu;
    max_frames;
    access_clock = 0;
    resolver = (fun seg -> raise (Partition.No_segment seg));
    consistency = (fun _ -> Partition.One_copy);
    frames = Hashtbl.create 256;
    inflight = Hashtbl.create 8;
    poisoned = Hashtbl.create 8;
    hook = None;
    twin_clock = 0;
    faults = 0;
    upgrades = 0;
    evictions = 0;
  }

let set_resolver t resolver = t.resolver <- resolver
let set_consistency t f = t.consistency <- f
let set_access_hook t hook = t.hook <- hook

(* Only relaxed-mode segments keep twins; one-copy frames stay
   exactly as before so the default protocol's footprint (and traces)
   are unchanged. *)
let snapshot_base t seg frame =
  match t.consistency seg with
  | Partition.One_copy -> ()
  | Partition.Release | Partition.Commutative _ ->
      t.twin_clock <- t.twin_clock + 1;
      frame.base <- Some (Page.copy frame.data);
      frame.base_stamp <- t.twin_clock

let touch_frame t frame =
  t.access_clock <- t.access_clock + 1;
  frame.last_used <- t.access_clock

(* Evict the least recently used frame to make room, writing it back
   through its partition if dirty (the data server keeps the bytes;
   the next touch refetches). *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun key frame acc ->
        match acc with
        | Some (_, best) when best.last_used <= frame.last_used -> acc
        | _ -> Some (key, frame))
      t.frames None
  in
  match victim with
  | None -> ()
  | Some ((seg, page), frame) ->
      Hashtbl.remove t.frames (seg, page);
      t.evictions <- t.evictions + 1;
      if frame.dirty then begin
        let partition = t.resolver seg in
        partition.Partition.writeback ~seg ~page frame.data
      end

let make_room t =
  while Hashtbl.length t.frames >= t.max_frames do
    evict_one t
  done

let mode_sufficient have need =
  match (have, need) with
  | Partition.Write, _ -> true
  | Partition.Read, Partition.Read -> true
  | Partition.Read, Partition.Write -> false

(* Fault a page in (or upgrade its mode), serializing concurrent
   faults on the same page so the partition sees one request.

   [backoff] breaks write-contention livelock: when several nodes
   fight over one page, the coherence manager's invalidation (a tiny
   frame) can overtake the page data still in flight to us, poisoning
   fetch after fetch.  Retrying after a randomized, growing delay
   lets the current owner finish before we steal the page back. *)
let rec ensure_resident ?(backoff = Sim.Time.of_ms_f 4.0) t seg page need =
  let key = (seg, page) in
  match Hashtbl.find_opt t.frames key with
  | Some f when mode_sufficient f.mode need ->
      touch_frame t f;
      f
  | existing -> (
      match Hashtbl.find_opt t.inflight key with
      | Some iv ->
          Sim.Ivar.read iv;
          ensure_resident t seg page need
      | None ->
          let iv = Sim.Ivar.create () in
          Hashtbl.replace t.inflight key iv;
          Fun.protect
            ~finally:(fun () ->
              Hashtbl.remove t.inflight key;
              Sim.Ivar.fill iv ())
            (fun () ->
              let self = Sim.self () in
              Cpu.consume t.cpu ~key:self t.params.Params.fault_trap;
              t.faults <- t.faults + 1;
              if existing <> None then t.upgrades <- t.upgrades + 1;
              let partition = t.resolver seg in
              let fetched = partition.Partition.fetch ~seg ~page ~mode:need in
              let frame =
                match fetched with
                | Partition.Zeroed ->
                    Cpu.consume t.cpu ~key:self t.params.Params.fault_zero_fill;
                    {
                      mode = need;
                      data = Page.zero ();
                      dirty = false;
                      last_used = 0;
                      base = None;
                      base_stamp = 0;
                    }
                | Partition.Data b ->
                    Cpu.consume t.cpu ~key:self t.params.Params.fault_copy;
                    let data = Page.zero () in
                    Bytes.blit b 0 data 0 (min (Bytes.length b) Page.size);
                    {
                      mode = need;
                      data;
                      dirty = false;
                      last_used = 0;
                      base = None;
                      base_stamp = 0;
                    }
              in
              snapshot_base t seg frame;
              touch_frame t frame;
              if existing = None then make_room t;
              if Hashtbl.mem t.poisoned key then begin
                (* invalidated while the fetch was in flight: discard
                   and fault again against the server's newer state *)
                Hashtbl.remove t.poisoned key;
                Hashtbl.remove t.frames key;
                None
              end
              else begin
                Hashtbl.replace t.frames key frame;
                Some frame
              end)
          |> function
          | Some frame -> frame
          | None ->
              let rng = Sim.Engine.rng (Sim.engine ()) in
              Sim.sleep (backoff + Sim.Rng.int rng (2 * backoff));
              ensure_resident
                ~backoff:(min (8 * backoff) (Sim.Time.ms 64))
                t seg page need)

(* Walk [addr, addr+len) chunk by chunk, where a chunk never crosses
   a page or mapping boundary, and apply [f frame ~page_off ~buf_off
   ~n] to each piece. *)
let access t vs ~addr ~len ~need f =
  if len < 0 then invalid_arg "Mmu: negative length";
  let self = Sim.self () in
  let pos = ref 0 in
  while !pos < len do
    let va = addr + !pos in
    match Virtual_space.translate vs va with
    | None -> raise (Segv va)
    | Some (m, seg_off) ->
        (match (need, m.Virtual_space.prot) with
        | Partition.Write, Virtual_space.Read_only -> raise (Write_protect va)
        | (Partition.Read | Partition.Write), _ -> ());
        let page = seg_off / Page.size in
        let page_off = seg_off mod Page.size in
        let until_page_end = Page.size - page_off in
        let until_map_end = m.Virtual_space.base + m.Virtual_space.len - va in
        let n = min (len - !pos) (min until_page_end until_map_end) in
        (match t.hook with
        | Some hook -> hook m.Virtual_space.seg page need
        | None -> ());
        let frame = ensure_resident t m.Virtual_space.seg page need in
        if t.params.Params.mem_access_byte_ns > 0 then
          Cpu.consume t.cpu ~key:self (t.params.Params.mem_access_byte_ns * n);
        f frame ~page_off ~buf_off:!pos ~n;
        pos := !pos + n
  done

let read t vs ~addr ~len =
  let out = Bytes.create len in
  access t vs ~addr ~len ~need:Partition.Read
    (fun frame ~page_off ~buf_off ~n ->
      Bytes.blit frame.data page_off out buf_off n);
  out

let write t vs ~addr src =
  let len = Bytes.length src in
  access t vs ~addr ~len ~need:Partition.Write
    (fun frame ~page_off ~buf_off ~n ->
      Bytes.blit src buf_off frame.data page_off n;
      frame.dirty <- true)

let resident t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some f -> Some f.mode
  | None -> None

let page_data t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some f -> Some (Page.copy f.data)
  | None -> None

let dirty_pages t seg =
  Hashtbl.fold
    (fun (s, page) f acc ->
      if Sysname.equal s seg && f.dirty then (page, Page.copy f.data) :: acc
      else acc)
    t.frames []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let invalidate t seg page =
  if Hashtbl.mem t.inflight (seg, page) then
    Hashtbl.replace t.poisoned (seg, page) ();
  match Hashtbl.find_opt t.frames (seg, page) with
  | None -> None
  | Some f ->
      Hashtbl.remove t.frames (seg, page);
      if f.dirty then Some (Page.copy f.data) else None

let downgrade t seg page =
  if Hashtbl.mem t.inflight (seg, page) then
    Hashtbl.replace t.poisoned (seg, page) ();
  match Hashtbl.find_opt t.frames (seg, page) with
  | None -> None
  | Some f ->
      let dirty = f.dirty in
      f.mode <- Partition.Read;
      f.dirty <- false;
      if dirty then Some (Page.copy f.data) else None

let mark_clean t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some f -> f.dirty <- false
  | None -> ()

let is_dirty t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some f -> f.dirty
  | None -> false

let page_base t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some { base = Some b; _ } -> Some (Page.copy b)
  | _ -> None

let twin_stamp t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some { base = Some _; base_stamp; _ } -> base_stamp
  | _ -> 0

(* After a relaxed-mode flush: the home now holds this image, so it
   becomes the frame's new twin (and, for commutative refresh, its
   contents). *)
let merge_refresh t seg page data =
  match Hashtbl.find_opt t.frames (seg, page) with
  | None -> ()
  | Some f ->
      Bytes.blit data 0 f.data 0 (min (Bytes.length data) Page.size);
      f.dirty <- false;
      snapshot_base t seg f

let rebase t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | None -> ()
  | Some f -> snapshot_base t seg f

let drop_segment t seg =
  let keys =
    Hashtbl.fold
      (fun (s, page) _ acc ->
        if Sysname.equal s seg then (s, page) :: acc else acc)
      t.frames []
  in
  List.iter (Hashtbl.remove t.frames) keys

let clear t =
  Hashtbl.reset t.frames;
  Hashtbl.reset t.inflight;
  Hashtbl.reset t.poisoned

let faults t = t.faults
let upgrades t = t.upgrades
let evictions t = t.evictions
let resident_frames t = Hashtbl.length t.frames
