(* Exports over a finished tracer: Chrome trace-event JSON (loadable
   in Perfetto / chrome://tracing) and a per-trace self-time stage
   breakdown.  All output is deterministic: spans render in creation
   order with fixed float formatting. *)

(* ------------------------------------------------------------------ *)
(* Stage classification.

   Span names map onto the paper's mechanism layers: [transport] is
   RaTP call time, [fault] is DSM page movement and coherence,
   [commit] is locking and commit protocol work, everything else
   (activation, user compute, queueing inside the request) is
   [other].  A span's *self time* — its duration minus the durations
   of its children — is charged to its own stage, so an RPC issued
   by a 2PC round counts as transport, not commit. *)

type stage = Transport | Fault | Commit | Other

let stage_of = function
  | "rpc" -> Transport
  | "2pc.prepare" | "2pc.commit" | "2pc.abort" | "lcp.commit" | "txn.lock"
  | "serve.prepare" | "serve.commit" | "serve.abort" | "serve.lock" ->
      Commit
  | name
    when String.length name >= 4 && String.equal (String.sub name 0 4) "dsm."
    ->
      Fault
  | name
    when String.length name >= 6 && String.equal (String.sub name 0 6) "serve."
    ->
      Fault
  | _ -> Other

let stage_label = function
  | Transport -> "transport"
  | Fault -> "fault"
  | Commit -> "commit"
  | Other -> "other"

(* ------------------------------------------------------------------ *)
(* Per-trace self-time stages *)

type stages = {
  transport_ms : float;
  fault_ms : float;
  commit_ms : float;
  other_ms : float;
}

type trace_sum = {
  trace : int;
  root : string;  (* root span name *)
  total_ms : float;  (* root span duration *)
  nspans : int;
  st : stages;
}

let stage_index = function
  | Transport -> 0
  | Fault -> 1
  | Commit -> 2
  | Other -> 3

(* Self time clamps at 0: fan-out children run concurrently, so
   their summed durations can exceed the parent's wall time — the
   breakdown is a cost decomposition, not a wall-clock partition.
   Each trace accumulates its root span, per-stage self time (summed
   in span order) and span count locally; the records are built once
   every span has been seen. *)
let per_trace (t : Tracer.t) =
  let n = Tracer.span_count t in
  let child_sum = Array.make (max n 1) 0.0 in
  Tracer.iter t (fun sp ->
      if sp.Tracer.parent >= 0 then
        child_sum.(sp.Tracer.parent) <-
          child_sum.(sp.Tracer.parent) +. Tracer.duration_ms sp);
  let traces = Hashtbl.create 256 in
  let order = ref [] in
  Tracer.iter t (fun sp ->
      let _, self, count =
        match Hashtbl.find_opt traces sp.Tracer.trace with
        | Some acc -> acc
        | None ->
            let acc = (sp, Array.make 4 0.0, ref 0) in
            Hashtbl.add traces sp.Tracer.trace acc;
            order := sp.Tracer.trace :: !order;
            acc
      in
      let i = stage_index (stage_of sp.Tracer.name) in
      self.(i) <-
        self.(i)
        +. Float.max 0.0 (Tracer.duration_ms sp -. child_sum.(sp.Tracer.id));
      incr count);
  List.rev_map
    (fun tid ->
      let root, self, count = Hashtbl.find traces tid in
      {
        trace = tid;
        root = root.Tracer.name;
        total_ms = Tracer.duration_ms root;
        nspans = !count;
        st =
          {
            transport_ms = self.(0);
            fault_ms = self.(1);
            commit_ms = self.(2);
            other_ms = self.(3);
          };
      })
    !order

(* ------------------------------------------------------------------ *)
(* JSON values and the one printer every export goes through: ", " and
   ": " separators, integer-valued numbers as integers, the rest at a
   fixed 6 decimals, so fixed-seed output is byte-stable. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_items b opening closing add l =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      add x)
    l;
  Buffer.add_char b closing

let rec add_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.bprintf b "%.0f" f
  | Num f when Float.is_finite f -> Printf.bprintf b "%.6f" f
  | Num _ -> Buffer.add_string b "null"
  | Str s -> add_str b s
  | Arr l -> add_items b '[' ']' (add_json b) l
  | Obj l ->
      add_items b '{' '}'
        (fun (k, v) ->
          add_str b k;
          Buffer.add_string b ": ";
          add_json b v)
        l

let to_string v =
  let b = Buffer.create 1024 in
  add_json b v;
  Buffer.contents b

let int n = Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON *)

(* One complete event (ph "X") per span; ts/dur in microseconds as
   the format requires, tid = trace id so Perfetto lays each
   invocation out on its own track, pid = node address. *)
let chrome_json (t : Tracer.t) =
  let events = ref [] in
  Tracer.iter t (fun sp ->
      let us = Sim.Time.to_us_f in
      events :=
        Obj
          [
            ("name", Str sp.Tracer.name);
            ("cat", Str (stage_label (stage_of sp.Tracer.name)));
            ("ph", Str "X"); ("ts", Num (us sp.Tracer.start));
            ("dur", Num (us (Sim.Time.diff sp.Tracer.stop sp.Tracer.start)));
            ("pid", int sp.Tracer.node); ("tid", int sp.Tracer.trace);
            ( "args",
              Obj [ ("span", int sp.Tracer.id); ("parent", int sp.Tracer.parent) ] );
          ]
        :: !events);
  to_string
    (Obj [ ("traceEvents", Arr (List.rev !events)); ("displayTimeUnit", Str "ms") ])

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader — enough to validate our own exports without
   a JSON dependency: full value grammar, string escapes, numbers. *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "short \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?' (* non-ASCII: placeholder *)
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | c when Char.code c < 0x20 -> fail "control char in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d then fail "expected digit"
    in
    if peek () = Some '-' then incr pos;
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  (* comma-separated items up to [close]; the opener is consumed *)
  let sequence close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go (x :: acc)
        | Some c when c = close ->
            incr pos;
            List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr pos;
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, parse_value ())))
    | Some '[' ->
        incr pos;
        Arr (sequence ']' parse_value)
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* Every changed, added or removed leaf between two documents, as
   "path: old → new" / "path: added" / "path: removed" lines.  Object
   members match by key, array elements by index; numbers compare at
   the printer's precision, so 2 and 2.0 are equal. *)
let diff a b =
  let rec go path a b =
    match (a, b) with
    | Obj la, Obj lb ->
        let key k = if path = "" then k else path ^ "." ^ k in
        List.concat_map
          (fun (k, va) ->
            match List.assoc_opt k lb with
            | Some vb -> go (key k) va vb
            | None -> [ key k ^ ": removed" ])
          la
        @ List.filter_map
            (fun (k, _) ->
              if List.mem_assoc k la then None else Some (key k ^ ": added"))
            lb
    | Arr la, Arr lb ->
        let la = Array.of_list la and lb = Array.of_list lb in
        List.concat
          (List.init (max (Array.length la) (Array.length lb)) (fun i ->
               let at = Printf.sprintf "%s[%d]" path i in
               if i >= Array.length lb then [ at ^ ": removed" ]
               else if i >= Array.length la then [ at ^ ": added" ]
               else go at la.(i) lb.(i)))
    | _ ->
        let sa = to_string a and sb = to_string b in
        if String.equal sa sb then [] else [ path ^ ": " ^ sa ^ " → " ^ sb ]
  in
  go "" a b

(* A valid non-empty Chrome trace export: parses, has a traceEvents
   array with at least one complete event carrying name/ts/dur. *)
let validate_chrome s =
  match parse s with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok v -> (
      match member "traceEvents" v with
      | Some (Arr []) -> Error "traceEvents is empty"
      | Some (Arr evs) ->
          let ok_event e =
            match (member "name" e, member "ts" e, member "dur" e) with
            | Some (Str _), Some (Num _), Some (Num _) -> true
            | _ -> false
          in
          if List.for_all ok_event evs then Ok (List.length evs)
          else Error "traceEvents contains a malformed event"
      | _ -> Error "missing traceEvents array")
