exception Segv of int
exception Write_protect of int

type frame = {
  mutable mode : Partition.mode;
  mutable data : bytes;
      (* always Page.size long.  A Read frame may share its image with
         the store, the wire and other nodes' frames, so it is never
         written; only a Write frame owns a private copy. *)
  mutable spans : (int * int) list;
      (* the (offset, length) byte ranges written since the frame was
         last clean: sorted, disjoint and never adjacent ([] = clean).
         Once they would cost a page to ship they collapse into one
         whole-page range, which bounds the list. *)
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
  faults : Sim.Stats.counter;
  upgrades : Sim.Stats.counter;
  evictions : Sim.Stats.counter;
}

let create ?(max_frames = max_int) ~cpu () =
  if max_frames < 1 then invalid_arg "Mmu.create: max_frames must be positive";
  {
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
    faults = Sim.Stats.counter "mmu/faults";
    upgrades = Sim.Stats.counter "mmu/upgrades";
    evictions = Sim.Stats.counter "mmu/evictions";
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

(* The bytes a frame's spans cover, copied out of its data. *)
let written_spans f =
  List.map (fun (off, n) -> (off, Bytes.sub f.data off n)) f.spans

(* Evict the least recently used frame to make room, writing its
   spans back through its partition if dirty (the data server keeps
   the bytes; the next touch refetches).  The frame stays resident
   until the writeback returns, so one that raises leaves it dirty,
   and it leaves only if nothing touched it meanwhile: a write to a
   whole-page span list leaves the list as it was, so the access
   clock is the test.  Two evictions of one victim send the same
   spans twice, which is harmless. *)
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
  | Some (((seg, page) as key), frame) ->
      let used = frame.last_used in
      if frame.spans <> [] then
        (t.resolver seg).Partition.writeback ~seg ~page (written_spans frame);
      (match Hashtbl.find_opt t.frames key with
      | Some f when f == frame && f.last_used = used ->
          Hashtbl.remove t.frames key;
          Sim.Stats.incr t.evictions
      | Some _ | None -> ())

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
              Cpu.consume t.cpu ~key:self Params.fault_trap;
              Sim.Stats.incr t.faults;
              if existing <> None then Sim.Stats.incr t.upgrades;
              let partition = t.resolver seg in
              let fetched = partition.Partition.fetch ~seg ~page ~mode:need in
              let frame =
                match fetched with
                | Partition.Zeroed ->
                    Cpu.consume t.cpu ~key:self Params.fault_zero_fill;
                    {
                      mode = need;
                      data = Page.zero ();
                      spans = [];
                      last_used = 0;
                      base = None;
                      base_stamp = 0;
                    }
                | Partition.Data b ->
                    Cpu.consume t.cpu ~key:self Params.fault_copy;
                    let data =
                      match need with
                      | Partition.Read when Bytes.length b = Page.size -> b
                      | Partition.Read | Partition.Write ->
                          let data = Page.zero () in
                          Bytes.blit b 0 data 0
                            (min (Bytes.length b) Page.size);
                          data
                    in
                    {
                      mode = need;
                      data;
                      spans = [];
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
        f frame ~page_off ~buf_off:!pos ~n;
        pos := !pos + n
  done

let read t vs ~addr ~len =
  let out = Bytes.create len in
  access t vs ~addr ~len ~need:Partition.Read
    (fun frame ~page_off ~buf_off ~n ->
      Bytes.blit frame.data page_off out buf_off n);
  out

let whole_page = [ (0, Page.size) ]

(* Shipping a span costs its bytes plus an 8-byte (offset, length)
   header, the same charge the wire and the log make. *)
let spans_cost spans = List.fold_left (fun acc (_, l) -> acc + 8 + l) 0 spans

(* Merge [lo, hi) into a sorted list of disjoint, non-adjacent
   ranges, absorbing every range it overlaps or touches. *)
let rec insert_range lo hi = function
  | [] -> [ (lo, hi - lo) ]
  | ((o, l) as r) :: rest ->
      if o + l < lo then r :: insert_range lo hi rest
      else if hi < o then (lo, hi - lo) :: r :: rest
      else insert_range (min lo o) (max hi (o + l)) rest

let note_write frame ~off ~n =
  match frame.spans with
  | [ (0, l) ] when l = Page.size -> ()
  | spans ->
      let spans = insert_range off (off + n) spans in
      frame.spans <-
        (if spans_cost spans >= Page.size then whole_page else spans)

let write t vs ~addr src =
  let len = Bytes.length src in
  access t vs ~addr ~len ~need:Partition.Write
    (fun frame ~page_off ~buf_off ~n ->
      Bytes.blit src buf_off frame.data page_off n;
      note_write frame ~off:page_off ~n)

let resident t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some f -> Some f.mode
  | None -> None

(* Each dirty frame of [seg], as [image f] of it, sorted by page. *)
let dirty_by_page t seg image =
  Hashtbl.fold
    (fun (s, page) f acc ->
      if Sysname.equal s seg && f.spans <> [] then (page, image f) :: acc
      else acc)
    t.frames []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let dirty_pages t seg = dirty_by_page t seg (fun f -> Page.copy f.data)

let dirty_spans t seg = dirty_by_page t seg written_spans

let invalidate t seg page =
  if Hashtbl.mem t.inflight (seg, page) then
    Hashtbl.replace t.poisoned (seg, page) ();
  match Hashtbl.find_opt t.frames (seg, page) with
  | None -> None
  | Some f ->
      Hashtbl.remove t.frames (seg, page);
      if f.spans <> [] then Some f.data else None

let downgrade t seg page =
  if Hashtbl.mem t.inflight (seg, page) then
    Hashtbl.replace t.poisoned (seg, page) ();
  match Hashtbl.find_opt t.frames (seg, page) with
  | None -> None
  | Some f ->
      let dirty = f.spans <> [] in
      (* Read mode from here on: the frame never writes [data] again,
         so the caller may keep it *)
      f.mode <- Partition.Read;
      f.spans <- [];
      if dirty then Some f.data else None

let mark_clean t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some f -> f.spans <- []
  | None -> ()

let is_dirty t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some f -> f.spans <> []
  | None -> false

let page_base t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some { base = Some b; _ } -> Some b
  | _ -> None

let twin_stamp t seg page =
  match Hashtbl.find_opt t.frames (seg, page) with
  | Some { base = Some _; base_stamp; _ } -> base_stamp
  | _ -> 0

(* After a relaxed-mode flush: the home now holds this image, so it
   becomes the frame's new twin (and, for commutative refresh, its
   contents).  The frame gets a fresh copy: its old data may be a
   shared Read image, and [data] is a message body. *)
let merge_refresh t seg page data =
  match Hashtbl.find_opt t.frames (seg, page) with
  | None -> ()
  | Some f ->
      let fresh = Page.copy f.data in
      Bytes.blit data 0 fresh 0 (min (Bytes.length data) Page.size);
      f.data <- fresh;
      f.spans <- [];
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

let metrics t =
  Sim.Stats.[ Counter t.faults; Counter t.upgrades; Counter t.evictions ]
let resident_frames t = Hashtbl.length t.frames
