type waiter = {
  w_txn : Protocol.txn_id;
  w_kind : Protocol.lock_kind;
  mutable w_active : bool;
  wake : [ `Granted | `Cancelled ] -> bool;
}

type entry = {
  hash : int;  (* the segment's hash in [Ra.Sysname.Table] *)
  born : int;  (* entries created before this one *)
  mutable readers : Protocol.txn_id list;
  mutable writer : Protocol.txn_id option;
  mutable queue : waiter list;  (* FIFO; inactive entries are skipped *)
}

(* [entries] is never shrunk.  [by_txn] lists, per transaction, every
   entry it has held or queued on since its last {!release_txn}: a
   superset of what that release has to touch. *)
type t = {
  entries : entry Ra.Sysname.Table.t;
  mutable buckets : int;  (* [entries]'s bucket count *)
  by_txn : (Protocol.txn_id, entry list) Hashtbl.t;
}

let initial_buckets = 32

let create () =
  {
    entries = Ra.Sysname.Table.create initial_buckets;
    buckets = initial_buckets;
    by_txn = Hashtbl.create 32;
  }

let entry_of t seg =
  match Ra.Sysname.Table.find_opt t.entries seg with
  | Some e -> e
  | None ->
      let born = Ra.Sysname.Table.length t.entries in
      let e =
        {
          hash = Hashtbl.hash (seg : Ra.Sysname.t);
          born;
          readers = [];
          writer = None;
          queue = [];
        }
      in
      Ra.Sysname.Table.replace t.entries seg e;
      (* the table doubles its buckets once it holds more than two
         bindings per bucket *)
      if born + 1 > 2 * t.buckets then t.buckets <- 2 * t.buckets;
      e

let involve t txn e =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> Hashtbl.replace t.by_txn txn [ e ]
  | Some es ->
      if not (List.memq e es) then Hashtbl.replace t.by_txn txn (e :: es)

let txn_eq ((n, s) : Protocol.txn_id) ((n', s') : Protocol.txn_id) =
  Int.equal n n' && Int.equal s s'

let is_reader e txn = List.exists (txn_eq txn) e.readers
let active_queue e = List.filter (fun w -> w.w_active) e.queue

(* Grant waiters from the head of the queue: a run of readers, or a
   single writer whose only conflicting reader is itself (upgrade). *)
let drain e =
  let rec loop () =
    match active_queue e with
    | [] -> e.queue <- []
    | w :: _ -> (
        match w.w_kind with
        | Protocol.R ->
            if e.writer = None then begin
              w.w_active <- false;
              (* a waiter that died while queued just drops out *)
              if w.wake `Granted && not (is_reader e w.w_txn) then
                e.readers <- w.w_txn :: e.readers;
              loop ()
            end
        | Protocol.W ->
            let others = List.filter (fun r -> not (txn_eq r w.w_txn)) e.readers in
            if e.writer = None && others = [] then begin
              w.w_active <- false;
              if w.wake `Granted then begin
                e.readers <- [];
                e.writer <- Some w.w_txn
              end
              else loop ()
            end)
  in
  loop ()

let acquire t seg txn kind =
  let e = entry_of t seg in
  let no_queue = active_queue e = [] in
  let holds_writer = match e.writer with Some w -> txn_eq w txn | None -> false in
  let immediate =
    match kind with
    | Protocol.R ->
        holds_writer || is_reader e txn || (e.writer = None && no_queue)
    | Protocol.W ->
        holds_writer
        || e.writer = None
           && List.for_all (txn_eq txn) e.readers
           && (e.readers <> [] (* sole-reader upgrade jumps the queue *)
              || no_queue)
  in
  if immediate then begin
    involve t txn e;
    (match kind with
    | Protocol.R ->
        if (not holds_writer) && not (is_reader e txn) then
          e.readers <- txn :: e.readers
    | Protocol.W ->
        if not holds_writer then begin
          e.readers <- List.filter (fun r -> not (txn_eq r txn)) e.readers;
          e.writer <- Some txn
        end);
    `Granted
  end
  else
    Sim.suspend "seg-lock" (fun wake ->
        let w = { w_txn = txn; w_kind = kind; w_active = true; wake } in
        involve t txn e;
        e.queue <- e.queue @ [ w ])

let holds t seg txn =
  match Ra.Sysname.Table.find_opt t.entries seg with
  | None -> None
  | Some e ->
      if (match e.writer with Some w -> txn_eq w txn | None -> false) then
        Some Protocol.W
      else if is_reader e txn then Some Protocol.R
      else None

(* Release [txn] on one entry: drop its hold, cancel its queued
   requests, and grant whoever is now compatible. *)
let release_entry txn e =
  let held =
    is_reader e txn
    || (match e.writer with Some w -> txn_eq w txn | None -> false)
  in
  e.readers <- List.filter (fun r -> not (txn_eq r txn)) e.readers;
  (match e.writer with
  | Some w when txn_eq w txn -> e.writer <- None
  | Some _ | None -> ());
  let cancelled =
    List.filter (fun w -> w.w_active && txn_eq w.w_txn txn) e.queue
  in
  List.iter
    (fun w ->
      w.w_active <- false;
      ignore (w.wake `Cancelled))
    cancelled;
  if held || cancelled <> [] then drain e

(* The entries [txn] is involved in, released in the order a walk of
   the whole table would visit them, since each grant schedules a
   wake-up: bucket by bucket ([hash] masked by the bucket count), and
   within a bucket newest first (a binding is inserted at its bucket's
   head, and a resize keeps each bucket's order). *)
let release_txn t txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some es ->
      Hashtbl.remove t.by_txn txn;
      let mask = t.buckets - 1 in
      let walk a b =
        match Int.compare (a.hash land mask) (b.hash land mask) with
        | 0 -> Int.compare b.born a.born
        | c -> c
      in
      List.iter (release_entry txn) (List.sort walk es)

let queue_length t seg =
  match Ra.Sysname.Table.find_opt t.entries seg with
  | None -> 0
  | Some e -> List.length (active_queue e)
