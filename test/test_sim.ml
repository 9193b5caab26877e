(* Unit and property tests for the discrete-event simulation engine. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_000_000_000 (Time.sec 1);
  check_int "of_ms_f" 1_500_000 (Time.of_ms_f 1.5);
  check_int "of_us_f" 2_500 (Time.of_us_f 2.5);
  Alcotest.(check (float 1e-9)) "to_ms_f" 1.5 (Time.to_ms_f (Time.of_ms_f 1.5));
  check_int "add" 30 (Time.add 10 20);
  check_int "diff" 15 (Time.diff 25 10)

(* ------------------------------------------------------------------ *)
(* Heap: the engine's event queue, driven through [Engine.timer]
   (push), [Engine.step] (pop) and [Engine.cancel] (remove).  Events
   fire in (time, scheduling order). *)

(* Schedule [at] on a fresh-engine clock; the event records [id]. *)
let push_timer eng fired at id =
  Engine.timer eng at (fun () -> fired := id :: !fired)

let push eng fired at id = ignore (push_timer eng fired at id)

let test_heap_basic () =
  let eng = Engine.create () in
  let fired = ref [] in
  check_int "empty" 0 (Engine.pending eng);
  List.iter (fun ms -> push eng fired (Time.ms ms) ms) [ 5; 1; 3 ];
  check_int "length" 3 (Engine.pending eng);
  let pop () = if Engine.step eng then Some (List.hd !fired) else None in
  Alcotest.(check (option int)) "pop1" (Some 1) (pop ());
  check_int "clock at the popped event" (Time.ms 1) (Engine.now eng);
  Alcotest.(check (option int)) "pop2" (Some 3) (pop ());
  Alcotest.(check (option int)) "pop3" (Some 5) (pop ());
  Alcotest.(check (option int)) "pop empty" None (pop ())

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      let eng = Engine.create () in
      let fired = ref [] in
      List.iteri (fun i x -> push eng fired x (x, i)) xs;
      Engine.run eng;
      (* ties keep scheduling order: a stable sort on time alone *)
      List.rev !fired
      = List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.mapi (fun i x -> (x, i)) xs))

(* Ops: [(0, x)] pushes an event [x] after now, [(1, _)] pops, and
   [(2, k)] cancels the [k]-th pending event (mod the pending count).
   Pushes outweigh pops and cancels 6:1:1, so the heap grows deep and
   cancels land mid-heap, where the filler may have to sift up. *)
let heap_op =
  QCheck.make
    ~print:QCheck.Print.(pair int int)
    QCheck.Gen.(
      pair (frequency [ (6, return 0); (1, return 1); (1, return 2) ]) small_nat)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap correct under interleaved push/pop" ~count:200
    (QCheck.list heap_op)
    (fun ops ->
      let eng = Engine.create () in
      let fired = ref [] in
      (* the model: pending (time, id, timer) triples, sorted; ids grow
         with scheduling order, so they break time ties the same way *)
      let model = ref [] and next = ref 0 in
      List.for_all
        (fun (op, x) ->
          match (op, !model) with
          | 0, _ ->
              incr next;
              let at = Time.add (Engine.now eng) x in
              let tm = push_timer eng fired at !next in
              model :=
                List.merge
                  (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j))
                  !model [ (at, !next, tm) ];
              true
          | 1, [] -> not (Engine.step eng)
          | 1, (_, id, _) :: rest ->
              model := rest;
              Engine.step eng && List.hd !fired = id
          | _, [] -> true
          | _, pending ->
              let k = x mod List.length pending in
              let _, _, tm = List.nth pending k in
              Engine.cancel eng tm;
              model := List.filteri (fun i _ -> i <> k) pending;
              Engine.pending eng = List.length !model)
        ops
      (* whatever is left drains in model order *)
      && begin
           fired := [];
           Engine.run eng;
           List.rev !fired = List.map (fun (_, id, _) -> id) !model
         end)

(* Popped events must become unreachable: the queue holds closures,
   and a pop that leaves a stale reference in the backing array pins
   every captured value until the slot happens to be overwritten.
   Weak pointers observe collection directly. *)
(* The scheduling lives in an [@inline never] helper so no captured
   value is kept reachable by a stack slot of the test function
   itself when the Gc runs. *)
let[@inline never] heap_fill eng weak n =
  for k = 0 to n - 1 do
    let elt = Bytes.make 64 'x' in
    Weak.set weak k (Some elt);
    Engine.at eng (Time.ms k) (fun () -> ignore (Sys.opaque_identity elt))
  done

let[@inline never] heap_timer eng weak k =
  let elt = Bytes.make 64 'x' in
  Weak.set weak k (Some elt);
  Engine.timer eng (Time.sec 60) (fun () -> ignore (Sys.opaque_identity elt))

let test_heap_pop_releases () =
  let eng = Engine.create () in
  let n = 8 in
  let weak = Weak.create (n + 1) in
  heap_fill eng weak n;
  let alive () =
    let count = ref 0 in
    for k = 0 to n - 1 do
      if Weak.check weak k then incr count
    done;
    !count
  in
  (* pop the minimum: its closure must be collectable while the rest
     live *)
  check_bool "stepped" true (Engine.step eng);
  Gc.full_major ();
  check_int "only the popped event was collected" (n - 1) (alive ());
  (* cancel: the timer leaves the heap at once, so its closure is
     collectable long before its deadline *)
  Engine.cancel eng (heap_timer eng weak n);
  Gc.full_major ();
  check_bool "cancelled closure collected" false (Weak.check weak n);
  check_int "the others still held" (n - 1) (alive ());
  check_int "cancelled timer not pending" (n - 1) (Engine.pending eng);
  (* drain: every closure must be collectable once the queue is empty *)
  Engine.run eng;
  Gc.full_major ();
  check_int "all collected after drain" 0 (alive ());
  check_int "clock never visited the cancelled deadline" (Time.ms (n - 1))
    (Engine.now eng)

(* Every time below is larger than its parent's in push order, so
   the heap array is the push order: a left subtree under 10 and a
   right one under 1.  Cancelling 11 moves the last element, 7, into
   a slot under 10, so removal has to sift the filler up, not only
   down, or 10 pops before 7. *)
let test_cancel_sifts_up () =
  let eng = Engine.create () in
  let fired = ref [] in
  let timers =
    List.map
      (fun ms -> (ms, push_timer eng fired (Time.ms ms) ms))
      [ 0; 10; 1; 11; 12; 2; 3; 13; 14; 15; 16; 4; 5; 6; 7 ]
  in
  Engine.cancel eng (List.assoc 11 timers);
  Engine.run eng;
  Alcotest.(check (list int))
    "sorted without 11"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 10; 12; 13; 14; 15; 16 ]
    (List.rev !fired)

let test_cancel_idempotent () =
  let eng = Engine.create () in
  let fired = ref [] in
  let a = push_timer eng fired (Time.ms 1) 1 in
  let b = push_timer eng fired (Time.ms 2) 2 in
  let c = push_timer eng fired (Time.ms 3) 3 in
  check_bool "stepped" true (Engine.step eng);
  (* [a] already fired: cancelling it must not disturb the heap *)
  Engine.cancel eng a;
  check_int "fired timer cancel is a no-op" 2 (Engine.pending eng);
  Engine.cancel eng b;
  Engine.cancel eng b;
  check_int "second cancel is a no-op" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (list int)) "only a and c fired" [ 1; 3 ] (List.rev !fired);
  Engine.cancel eng c;
  check_int "empty" 0 (Engine.pending eng);
  check_int "clock at c" (Time.ms 3) (Engine.now eng)

(* Random mixes of engine operations, driven from outside the engine
   one step at a time.  The test keeps its own counter in step with
   the engine's sequence numbers (one per timer, spawn, sleep and kill
   of a sleeper) and tags every event it expects with its (time,
   order) key; each firing logs its key.  Events due now (a timer at
   or before the clock, a [sleep 0]) wait in the ready queue, later
   ones in the heap, so the merge of the two is what is checked: keys
   fire in increasing order, exactly the live ones fire, and
   [Engine.pending] counts the live ones after every operation. *)
type mix_op =
  | Timer of int  (* at now + us, -1 (the past) to 3 *)
  | Cancel of int  (* the k-th live timer *)
  | Spawn of int  (* a process that sleeps this many us, 0 to 2 *)
  | Kill of int  (* the k-th process *)
  | Step

let mix_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Timer d) (int_range (-1) 3));
        (2, map (fun k -> Cancel k) small_nat);
        (3, map (fun s -> Spawn s) (int_range 0 2));
        (2, map (fun k -> Kill k) small_nat);
        (4, return Step);
      ])

let print_mix_op = function
  | Timer d -> Printf.sprintf "Timer %d" d
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Spawn s -> Printf.sprintf "Spawn %d" s
  | Kill k -> Printf.sprintf "Kill %d" k
  | Step -> "Step"

type mix_proc = {
  mutable mp_pid : Engine.pid;
  mutable mp_state : [ `Unstarted of int * int | `Sleeping of int * int | `Done ];
  mutable mp_end : (int * int) option;  (* the event its kill ends in *)
}

let prop_engine_mix =
  QCheck.Test.make ~name:"ready queue and heap fire in (time, order)"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_mix_op)
       QCheck.Gen.(
         (* a same-instant timer cancelled while still in the ready
            queue opens every mix *)
         map (fun ops -> Timer 0 :: Cancel 0 :: ops) (list mix_op)))
    (fun ops ->
      let eng = Engine.create () in
      let seq = ref 0 in
      let live = Hashtbl.create 16 in
      let fired = ref [] and ok = ref true in
      let expect time =
        incr seq;
        let key = (max time (Engine.now eng), !seq) in
        Hashtbl.replace live key ();
        key
      in
      let fire ((time, _) as key) =
        if not (Hashtbl.mem live key && Engine.now eng = time) then ok := false;
        Hashtbl.remove live key;
        fired := key :: !fired
      in
      let timers = ref [] and procs = ref [] in
      let apply = function
        | Timer d ->
            let at = Time.add (Engine.now eng) (Time.us d) in
            let key = expect at in
            timers := (key, Engine.timer eng at (fun () -> fire key)) :: !timers
        | Cancel k -> (
            match List.filter (fun (key, _) -> Hashtbl.mem live key) !timers with
            | [] -> ()
            | pending ->
                let key, tm = List.nth pending (k mod List.length pending) in
                Engine.cancel eng tm;
                Hashtbl.remove live key)
        | Spawn span ->
            let start = expect (Engine.now eng) in
            let p = { mp_pid = 0; mp_state = `Unstarted start; mp_end = None } in
            p.mp_pid <-
              Engine.spawn eng "mix" (fun () ->
                  fire start;
                  let wake = expect (Time.add (Engine.now eng) (Time.us span)) in
                  p.mp_state <- `Sleeping wake;
                  Sim.sleep (Time.us span);
                  p.mp_state <- `Done;
                  fire wake);
            Engine.on_terminate eng p.mp_pid (fun () -> Option.iter fire p.mp_end);
            procs := p :: !procs
        | Kill _ when !procs = [] -> ()
        | Kill k ->
            let p = List.nth !procs (k mod List.length !procs) in
            (match p.mp_state with
            | `Unstarted start ->
                (* its start event still fires, and only ends it *)
                p.mp_end <- Some start
            | `Sleeping wake ->
                Hashtbl.remove live wake;
                p.mp_end <- Some (expect (Engine.now eng))
            | `Done -> ());
            p.mp_state <- `Done;
            Engine.kill eng p.mp_pid
        | Step -> ignore (Engine.step eng)
      in
      List.iter
        (fun op ->
          apply op;
          if Engine.pending eng <> Hashtbl.length live then ok := false)
        ops;
      Engine.run eng;
      let order = List.rev !fired in
      !ok
      && Hashtbl.length live = 0
      && Engine.pending eng = 0
      && order = List.sort compare order)

(* Two kills whose outcome depends on where the process is parked.
   One parked in [yield] has its same-instant wake-up cancelled and
   dies at once, running its cleanup; one already woken, whose
   resumption is scheduled but has not run, still resumes with its
   value and runs on until its next suspension point, where it dies. *)
let test_kill_parked_in_yield_and_woken () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let yielder =
    Engine.spawn eng "yielder" (fun () ->
        Fun.protect
          ~finally:(fun () -> note "yielder cleanup")
          (fun () ->
            Sim.yield ();
            note "yielder resumed"))
  in
  Engine.at eng Time.zero (fun () ->
      Engine.kill eng yielder;
      note "yielder killed");
  let iv = Ivar.create () in
  let woken =
    Engine.spawn eng "woken" (fun () ->
        Fun.protect
          ~finally:(fun () -> note "woken cleanup")
          (fun () ->
            note (Printf.sprintf "woken got %d" (Ivar.read iv));
            Sim.sleep (Time.ms 1);
            note "woken slept"))
  in
  Engine.on_terminate eng woken (fun () -> note "woken terminated");
  Engine.at eng (Time.us 5) (fun () ->
      Ivar.fill iv 7;
      Engine.kill eng woken;
      note "woken killed");
  Engine.run eng;
  Alcotest.(check (list string))
    "as before the ready queue"
    [
      "yielder killed"; "yielder cleanup"; "woken killed"; "woken got 7";
      "woken cleanup"; "woken terminated";
    ]
    (List.rev !log);
  check_bool "yielder dead" false (Engine.alive eng yielder);
  check_bool "woken dead" false (Engine.alive eng woken);
  check_int "nothing left" 0 (Engine.pending eng);
  check_int "the woken process never slept its 1 ms" (Time.us 5) (Engine.now eng)

(* [run ~until] before the clock sends the clock back; an event that
   was due at the old clock still fires after one scheduled later for
   an instant in between. *)
let test_run_until_in_the_past () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.at eng (Time.ms 5) (fun () ->
      Engine.at eng (Engine.now eng) (fun () -> order := "due at 5" :: !order));
  check_bool "stepped" true (Engine.step eng);
  Engine.run ~until:(Time.ms 2) eng;
  check_int "clock back at until" (Time.ms 2) (Engine.now eng);
  check_int "still pending" 1 (Engine.pending eng);
  Engine.at eng (Time.ms 3) (fun () -> order := "due at 3" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "time order" [ "due at 3"; "due at 5" ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let test_clock_advances () =
  let result =
    Sim.exec (fun () ->
        let t0 = Sim.now () in
        Sim.sleep (Time.ms 5);
        let t1 = Sim.now () in
        Time.diff t1 t0)
  in
  check_int "slept 5ms" (Time.ms 5) result

let test_spawn_ordering () =
  let order = ref [] in
  let eng = Engine.create () in
  let _ =
    Engine.spawn eng "a" (fun () -> order := "a" :: !order)
  in
  let _ =
    Engine.spawn eng "b" (fun () -> order := "b" :: !order)
  in
  Engine.run eng;
  Alcotest.(check (list string)) "spawn order preserved" [ "a"; "b" ]
    (List.rev !order)

let test_same_instant_fifo () =
  (* Events scheduled at the same instant run in scheduling order. *)
  let order = ref [] in
  let eng = Engine.create () in
  Engine.at eng (Time.ms 1) (fun () -> order := 1 :: !order);
  Engine.at eng (Time.ms 1) (fun () -> order := 2 :: !order);
  Engine.at eng (Time.ms 1) (fun () -> order := 3 :: !order);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo at same time" [ 1; 2; 3 ] (List.rev !order)

let test_run_until () =
  let fired = ref false in
  let eng = Engine.create () in
  Engine.at eng (Time.ms 10) (fun () -> fired := true);
  Engine.run ~until:(Time.ms 5) eng;
  check_bool "not yet fired" false !fired;
  check_int "clock stopped at until" (Time.ms 5) (Engine.now eng);
  Engine.run eng;
  check_bool "fired later" true !fired

let test_determinism () =
  let trace seed =
    let log = ref [] in
    let eng = Engine.create ~seed () in
    for i = 1 to 5 do
      let delay = Time.us (Rng.int (Engine.rng eng) 1000) in
      Engine.at eng delay (fun () -> log := (i, delay) :: !log)
    done;
    Engine.run eng;
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 7 = trace 7);
  Alcotest.(check bool)
    "different seed, different trace" true
    (trace 7 <> trace 8)

let test_nested_spawn_and_self () =
  let result =
    Sim.exec (fun () ->
        let child_pid = Ivar.create () in
        let p =
          Sim.spawn "child" (fun () -> Ivar.fill child_pid (Sim.self ()))
        in
        let reported = Ivar.read child_pid in
        (p, reported))
  in
  check_bool "self matches spawn pid" true (fst result = snd result)

let test_exec_deadlock_detected () =
  let deadlocks =
    try
      Sim.exec (fun () ->
          let (iv : unit Ivar.t) = Ivar.create () in
          Ivar.read iv);
      false
    with Failure _ -> true
  in
  check_bool "deadlock raises" true deadlocks

(* ------------------------------------------------------------------ *)
(* Kill *)

let test_kill_sleeping () =
  let eng = Engine.create () in
  let woke = ref false in
  let pid =
    Engine.spawn eng "sleeper" (fun () ->
        Sim.sleep (Time.sec 10);
        woke := true)
  in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill eng pid);
  Engine.run eng;
  check_bool "never woke" false !woke;
  check_bool "not alive" false (Engine.alive eng pid);
  check_int "killed promptly, clock did not run to 10s" (Time.ms 1)
    (Engine.now eng)

let prop_sleepers_under_kills =
  (* Each planned process sleeps [d] us; a marked one (with [d > 0])
     is killed 1 us before its deadline.  Survivors wake exactly at
     their deadlines, in (deadline, spawn) order; a killed sleeper
     never wakes, and its cancelled wakeup does not carry the clock
     past the last live event. *)
  QCheck.Test.make ~name:"sleepers wake on time amid kills" ~count:200
    QCheck.(small_list (pair small_nat bool))
    (fun plan ->
      let plan = List.map (fun (d, k) -> (d, k && d > 0)) plan in
      let eng = Engine.create () in
      let woke = ref [] in
      List.iteri
        (fun i (d, killed) ->
          let pid =
            Engine.spawn eng "sleeper" (fun () ->
                Sim.sleep (Time.us d);
                woke := (i, Engine.now eng) :: !woke)
          in
          if killed then
            Engine.at eng (Time.us (d - 1)) (fun () -> Engine.kill eng pid))
        plan;
      Engine.run eng;
      let expected =
        List.mapi (fun i (d, killed) -> (i, Time.us d, killed)) plan
        |> List.filter_map (fun (i, at, killed) ->
               if killed then None else Some (i, at))
        |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
      in
      let last_event =
        List.fold_left
          (fun acc (d, killed) ->
            max acc (if killed then Time.us (d - 1) else Time.us d))
          Time.zero plan
      in
      List.rev !woke = expected
      && Engine.now eng = last_event
      && Engine.procs eng = [])

let test_kill_group () =
  let eng = Engine.create () in
  let survivors = ref [] in
  let mk group name =
    Engine.spawn eng ~group name (fun () ->
        Sim.sleep (Time.ms 10);
        survivors := name :: !survivors)
  in
  let _a = mk 1 "a" and _b = mk 1 "b" and _c = mk 2 "c" in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill_group eng 1);
  Engine.run eng;
  Alcotest.(check (list string)) "only group 2 survives" [ "c" ] !survivors

let test_spawn_inherits_group () =
  let eng = Engine.create () in
  let child_ran = ref false in
  let _parent =
    Engine.spawn eng ~group:9 "parent" (fun () ->
        let _ =
          Sim.spawn "child" (fun () ->
              Sim.sleep (Time.ms 10);
              child_ran := true)
        in
        ())
  in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill_group eng 9);
  Engine.run eng;
  check_bool "child inherited group and was killed" false !child_ran

let test_killed_not_resumed_by_waker () =
  (* A waker arriving after kill must not resurrect the process. *)
  let eng = Engine.create () in
  let resumed = ref false in
  let iv = Ivar.create () in
  let pid =
    Engine.spawn eng "reader" (fun () ->
        let () = Ivar.read iv in
        resumed := true)
  in
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill eng pid);
  Engine.at eng (Time.ms 2) (fun () -> Ivar.fill iv ());
  Engine.run eng;
  check_bool "not resumed" false !resumed

let test_mutex_handoff_skips_dead_waiter () =
  (* A holds the mutex; B queues then dies; when A unlocks, the lock
     must not be stranded on the dead B — C gets it. *)
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let m = Mutex.create () in
      Mutex.lock m;
      let b =
        Engine.spawn eng "b" (fun () ->
            Mutex.lock m;
            Alcotest.fail "dead waiter must not get the lock")
      in
      let c_got = ref false in
      let _c =
        Engine.spawn eng "c" (fun () ->
            Mutex.lock m;
            c_got := true;
            Mutex.unlock m)
      in
      Sim.sleep (Time.ms 1);
      Engine.kill eng b;
      Sim.sleep (Time.ms 1);
      Mutex.unlock m;
      Sim.sleep (Time.ms 1);
      check_bool "c acquired after dead b skipped" true !c_got;
      check_bool "free afterwards" false (Mutex.locked m))

let test_semaphore_release_skips_dead_waiter () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let s = Semaphore.create 0 in
      let b = Engine.spawn eng "b" (fun () -> Semaphore.acquire s) in
      Sim.sleep (Time.ms 1);
      Engine.kill eng b;
      Sim.sleep (Time.ms 1);
      Semaphore.release s;
      (* the dead waiter must not swallow the count *)
      check_int "count restored" 1 (Semaphore.count s))

let test_mailbox_send_skips_dead_receiver () =
  (* B waits on the mailbox and dies (a killed rx loop): a send must
     not vanish into it but reach C, then the queue. *)
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let mb = Mailbox.create "mb" in
      let b =
        Engine.spawn eng "b" (fun () ->
            ignore (Mailbox.recv mb : int);
            Alcotest.fail "dead receiver must not get the value")
      in
      let c_got = ref None in
      let _c =
        Engine.spawn eng "c" (fun () -> c_got := Some (Mailbox.recv mb))
      in
      Sim.sleep (Time.ms 1);
      Engine.kill eng b;
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Sim.sleep (Time.ms 1);
      Alcotest.(check (option int)) "next receiver served" (Some 1) !c_got;
      check_int "rest queued" 1 (Mailbox.length mb))

let test_on_terminate () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let log = ref [] in
      (* normal completion *)
      let a = Engine.spawn eng "a" (fun () -> Sim.sleep (Time.ms 1)) in
      Engine.on_terminate eng a (fun () -> log := "a" :: !log);
      (* killed *)
      let b = Engine.spawn eng "b" (fun () -> Sim.sleep (Time.sec 10)) in
      Engine.on_terminate eng b (fun () -> log := "b" :: !log);
      Sim.sleep (Time.ms 2);
      check_bool "a reported" true (List.mem "a" !log);
      check_bool "b not yet" false (List.mem "b" !log);
      Engine.kill eng b;
      Sim.sleep (Time.ms 1);
      check_bool "b reported after kill" true (List.mem "b" !log);
      (* already-finished process: callback runs immediately *)
      Engine.on_terminate eng a (fun () -> log := "late" :: !log);
      check_bool "late callback immediate" true (List.mem "late" !log))

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_fill_then_read () =
  let v =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        Ivar.fill iv 42;
        Ivar.read iv)
  in
  check_int "read full" 42 v

let test_ivar_read_blocks () =
  let v =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        let _ =
          Sim.spawn "filler" (fun () ->
              Sim.sleep (Time.ms 3);
              Ivar.fill iv 7)
        in
        let x = Ivar.read iv in
        (x, Sim.now ()))
  in
  check_int "value" 7 (fst v);
  check_int "waited 3ms" (Time.ms 3) (snd v)

let test_ivar_multiple_readers () =
  let total =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        let acc = ref 0 in
        let done_ = Semaphore.create 0 in
        for _ = 1 to 3 do
          ignore
            (Sim.spawn "reader" (fun () ->
                 acc := !acc + Ivar.read iv;
                 Semaphore.release done_))
        done;
        Sim.sleep (Time.ms 1);
        Ivar.fill iv 5;
        for _ = 1 to 3 do
          Semaphore.acquire done_
        done;
        !acc)
  in
  check_int "all readers woken" 15 total

let test_ivar_double_fill () =
  let raised =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        Ivar.fill iv 1;
        check_bool "try_fill on full" false (Ivar.try_fill iv 2);
        try
          Ivar.fill iv 3;
          false
        with Invalid_argument _ -> true)
  in
  check_bool "double fill raises" true raised

let test_ivar_timeout_expires () =
  let r =
    Sim.exec (fun () ->
        let iv : int Ivar.t = Ivar.create () in
        let v = Ivar.read_timeout iv (Time.ms 5) in
        (v, Sim.now ()))
  in
  Alcotest.(check (option int)) "timed out" None (fst r);
  check_int "waited exactly timeout" (Time.ms 5) (snd r)

let test_ivar_timeout_delivers () =
  let eng = Engine.create () in
  let r, pending =
    Sim.exec_on eng (fun () ->
        let iv = Ivar.create () in
        let _ =
          Sim.spawn "filler" (fun () ->
              Sim.sleep (Time.ms 2);
              Ivar.fill iv 1)
        in
        let r = Ivar.read_timeout iv (Time.ms 5) in
        (r, Engine.pending eng))
  in
  Alcotest.(check (option int)) "delivered" (Some 1) r;
  (* the fill makes the deadline moot: it leaves the queue instead of
     waiting out its span *)
  check_int "no deadline left pending" 0 pending;
  check_int "clock stops at the fill" (Time.ms 2) (Engine.now eng)

let test_ivar_value_kept_after_timeout () =
  (* A fill after the reader timed out must stay in the ivar. *)
  let r =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        let first = Ivar.read_timeout iv (Time.ms 1) in
        Ivar.fill iv 8;
        let second = Ivar.read_timeout iv (Time.ms 1) in
        (first, second, Sim.now ()))
  in
  let first, second, now = r in
  Alcotest.(check (option int)) "timed out first" None first;
  Alcotest.(check (option int)) "value kept" (Some 8) second;
  check_int "full ivar answers at once" (Time.ms 1) now

let test_ivar_poll_loop_leaves_nothing () =
  (* A timed-out reader must unregister itself, or a poll loop grows
     the waiter list without bound. *)
  let max_seen, after, late =
    Sim.exec (fun () ->
        let iv = Ivar.create () in
        let max_seen = ref 0 in
        for _ = 1 to 50 do
          assert (Ivar.read_timeout iv (Time.us 100) = None);
          max_seen := max !max_seen (Ivar.waiters iv)
        done;
        let after = (Ivar.waiters iv, Engine.pending (Sim.engine ())) in
        (* a fresh reader must still be woken: the timeouts drop only
           their own waiters *)
        let got = ref None in
        ignore (Sim.spawn "late" (fun () -> got := Some (Ivar.read iv)));
        Sim.yield ();
        Ivar.fill iv 99;
        Sim.sleep (Time.us 1);
        (!max_seen, after, !got))
  in
  check_int "nothing registered between polls" 0 max_seen;
  Alcotest.(check (pair int int)) "no waiter or deadline left" (0, 0) after;
  Alcotest.(check (option int)) "live reader still served" (Some 99) late

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let received =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        Mailbox.send mb 1;
        Mailbox.send mb 2;
        Mailbox.send mb 3;
        let a = Mailbox.recv mb in
        let b = Mailbox.recv mb in
        let c = Mailbox.recv mb in
        [ a; b; c ])
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] received

let test_mailbox_blocking_recv () =
  let v =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        let _ =
          Sim.spawn "sender" (fun () ->
              Sim.sleep (Time.ms 2);
              Mailbox.send mb 99)
        in
        Mailbox.recv mb)
  in
  check_int "received" 99 v

let test_mailbox_receivers_fifo () =
  let order =
    Sim.exec (fun () ->
        let mb = Mailbox.create "mb" in
        let log = ref [] in
        let done_ = Semaphore.create 0 in
        let reader name =
          ignore
            (Sim.spawn name (fun () ->
                 let v = Mailbox.recv mb in
                 log := (name, v) :: !log;
                 Semaphore.release done_))
        in
        reader "r1";
        Sim.yield ();
        reader "r2";
        Sim.sleep (Time.ms 1);
        Mailbox.send mb 10;
        Mailbox.send mb 20;
        Semaphore.acquire done_;
        Semaphore.acquire done_;
        List.rev !log)
  in
  Alcotest.(check (list (pair string int)))
    "receivers served in arrival order"
    [ ("r1", 10); ("r2", 20) ]
    order

(* ------------------------------------------------------------------ *)
(* Semaphore / Mutex *)

let test_semaphore_counts () =
  Sim.exec (fun () ->
      let s = Semaphore.create 2 in
      Semaphore.acquire s;
      Semaphore.acquire s;
      check_int "exhausted" 0 (Semaphore.count s);
      check_bool "try fails at zero" false (Semaphore.try_acquire s);
      Semaphore.release s;
      check_bool "try succeeds" true (Semaphore.try_acquire s))

let test_semaphore_blocks_and_wakes () =
  let waited =
    Sim.exec (fun () ->
        let s = Semaphore.create 0 in
        let _ =
          Sim.spawn "releaser" (fun () ->
              Sim.sleep (Time.ms 4);
              Semaphore.release s)
        in
        Semaphore.acquire s;
        Sim.now ())
  in
  check_int "woken at release time" (Time.ms 4) waited

let test_mutex_mutual_exclusion () =
  let max_inside =
    Sim.exec (fun () ->
        let m = Mutex.create () in
        let inside = ref 0 in
        let peak = ref 0 in
        let done_ = Semaphore.create 0 in
        for i = 1 to 4 do
          ignore
            (Sim.spawn (Printf.sprintf "p%d" i) (fun () ->
                 Mutex.with_lock m (fun () ->
                     incr inside;
                     peak := max !peak !inside;
                     Sim.sleep (Time.ms 1);
                     decr inside);
                 Semaphore.release done_))
        done;
        for _ = 1 to 4 do
          Semaphore.acquire done_
        done;
        !peak)
  in
  check_int "never two holders" 1 max_inside

let test_mutex_exception_releases () =
  Sim.exec (fun () ->
      let m = Mutex.create () in
      (try Mutex.with_lock m (fun () -> failwith "boom")
       with Failure _ -> ());
      check_bool "released after exception" false (Mutex.locked m))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Stats.series "t" in
  List.iter (Stats.add s) [ 4.0; 1.0; 3.0; 2.0 ];
  check_int "n" 4 (Stats.n s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_v s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_v s);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p50" 2.5 (Stats.percentile s 50.0)

let test_stats_empty_series () =
  (* An empty series must summarise to finite values: [infinity] /
     [neg_infinity] leak into reports as invalid JSON. *)
  let s = Stats.series "empty" in
  check_int "n" 0 (Stats.n s);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "min" 0.0 (Stats.min_v s);
  Alcotest.(check (float 0.0)) "max" 0.0 (Stats.max_v s)

let test_stats_empty_percentile () =
  (* regression: percentile on an empty series used to index into a
     zero-length array; it must return 0.0 like the other summaries *)
  let s = Stats.series "empty" in
  Alcotest.(check (float 0.0)) "p50 empty" 0.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p0 empty" 0.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 0.0)) "p100 empty" 0.0 (Stats.percentile s 100.0);
  Alcotest.check_raises "out of range still rejected"
    (Invalid_argument "Stats.percentile: bad percentile") (fun () ->
      ignore (Stats.percentile s 150.0))

let test_hist_exact_aggregates () =
  let h = Stats.hist "h" in
  List.iter (Stats.hadd h) [ 4.0; 1.0; 3.0; 2.0 ];
  check_int "n" 4 (Stats.hist_n h);
  Alcotest.(check (float 1e-9)) "sum exact" 10.0 (Stats.hist_total h);
  Alcotest.(check (float 1e-9)) "mean exact" 2.5 (Stats.hist_mean h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Stats.hist_min h);
  Alcotest.(check (float 1e-9)) "max exact" 4.0 (Stats.hist_max h);
  (* p0/p100 clamp to the exact extrema, not bucket representatives *)
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.hist_percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.hist_percentile h 100.0);
  (* empty histogram summarises to finite zeros like an empty series *)
  let e = Stats.hist "e" in
  check_int "empty n" 0 (Stats.hist_n e);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.hist_mean e);
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Stats.hist_percentile e 99.0)

let test_hist_accuracy_10k () =
  (* the acceptance bound: at 10k samples of a long-tailed latency
     shape, streaming percentiles stay within 1% relative error of
     the exact sorted-array percentiles *)
  let n = 10_000 in
  let x = ref 123456789 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let u = float_of_int !x /. float_of_int 0x40000000 in
    (* inverse-CDF exponential, scaled into a ms-like range, plus a
       floor so samples sit well inside the bucket range *)
    0.05 +. (-.log (1.0 -. (u *. 0.9999)) *. 12.0)
  in
  let vals = Array.init n (fun _ -> next ()) in
  let s = Stats.series "exact" in
  let h = Stats.hist "stream" in
  Array.iter
    (fun v ->
      Stats.add s v;
      Stats.hadd h v)
    vals;
  List.iter
    (fun p ->
      let exact = Stats.percentile s p in
      let approx = Stats.hist_percentile h p in
      let rel = Float.abs (approx -. exact) /. exact in
      if rel > 0.01 then
        Alcotest.failf "p%.0f: hist %.6f vs exact %.6f (rel err %.4f > 1%%)" p
          approx exact rel)
    [ 50.0; 90.0; 95.0; 99.0; 99.9 ];
  Alcotest.(check (float 1e-9))
    "mean stays exact" (Stats.mean s) (Stats.hist_mean h)

let test_stats_counter () =
  let c = Stats.counter "c" in
  Stats.incr c;
  Stats.incr_by c 4;
  check_int "value" 5 (Stats.value c)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.series "p" in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min_v s -. 1e-9
      && Stats.mean s <= Stats.max_v s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Fanout *)

let test_fanout_order_and_concurrency () =
  let elapsed, results =
    Sim.exec (fun () ->
        let t0 = Sim.now () in
        let rs =
          Fanout.map [ 30; 10; 20 ] ~f:(fun d ->
              Sim.sleep (Time.ms d);
              d * 2)
        in
        (Time.diff (Sim.now ()) t0, rs))
  in
  Alcotest.(check (list int)) "results in input order" [ 60; 20; 40 ] results;
  check_int "elapsed = slowest worker, not the sum" (Time.ms 30) elapsed

let test_fanout_empty_and_singleton () =
  Alcotest.(check (list int))
    "empty" []
    (Sim.exec (fun () -> Fanout.map [] ~f:(fun x -> x)));
  let t, r =
    Sim.exec (fun () ->
        let t0 = Sim.now () in
        let r = Fanout.map [ 7 ] ~f:(fun x -> x + 1) in
        (Time.diff (Sim.now ()) t0, r))
  in
  Alcotest.(check (list int)) "singleton result" [ 8 ] r;
  check_int "singleton runs inline, no scheduling round trip" 0 t

exception Boom

let test_fanout_exception_propagates () =
  let raised =
    try
      ignore
        (Sim.exec (fun () ->
             Fanout.map [ 1; 2; 3 ] ~f:(fun d ->
                 Sim.sleep (Time.ms d);
                 if d = 2 then raise Boom;
                 d)));
      false
    with Boom -> true
  in
  check_bool "worker exception re-raised at the join" true raised

let test_fanout_iter_waits_for_all () =
  let hits =
    Sim.exec (fun () ->
        let hits = ref 0 in
        Fanout.iter [ 5; 1; 3 ] ~f:(fun d ->
            Sim.sleep (Time.ms d);
            incr hits);
        !hits)
  in
  check_int "every worker ran before iter returned" 3 hits

(* ------------------------------------------------------------------ *)
(* Stats on large series (the sorted cache must stay correct across
   interleaved adds and reads) *)

let test_stats_large_series_regression () =
  let n = 10_000 in
  (* deterministic pseudo-random samples; no global Random state *)
  let x = ref 123456789 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !x /. 1e6
  in
  let vals = Array.init n (fun _ -> next ()) in
  let s = Stats.series "big" in
  Array.iter (Stats.add s) vals;
  let sorted = Array.copy vals in
  Array.sort compare sorted;
  check_int "n" n (Stats.n s);
  Alcotest.(check (float 1e-9)) "min" sorted.(0) (Stats.min_v s);
  Alcotest.(check (float 1e-9)) "max" sorted.(n - 1) (Stats.max_v s);
  Alcotest.(check (float 1e-9)) "p0 = min" sorted.(0) (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9))
    "p100 = max"
    sorted.(n - 1)
    (Stats.percentile s 100.0);
  let p50 = Stats.percentile s 50.0 in
  check_bool "median between the two middle samples" true
    (p50 >= sorted.((n / 2) - 1) && p50 <= sorted.(n / 2));
  check_bool "percentiles monotone" true
    (Stats.percentile s 25.0 <= p50 && p50 <= Stats.percentile s 75.0);
  let mean = Array.fold_left ( +. ) 0.0 vals /. float_of_int n in
  Alcotest.(check (float 1e-6)) "mean" mean (Stats.mean s);
  (* sample standard deviation (n - 1), matching the library *)
  let var =
    Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 vals
    /. float_of_int (n - 1)
  in
  Alcotest.(check (float 1e-4)) "stddev" (sqrt var) (Stats.stddev s);
  (* the cached sorted view must be invalidated by a later add *)
  Stats.add s 1.0e9;
  Alcotest.(check (float 1e-9)) "max after add" 1.0e9 (Stats.max_v s);
  Alcotest.(check (float 1e-9))
    "p100 after add" 1.0e9 (Stats.percentile s 100.0);
  check_int "n after add" (n + 1) (Stats.n s)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [ Alcotest.test_case "units and arithmetic" `Quick test_time_units ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "pop releases references" `Quick
            test_heap_pop_releases;
          Alcotest.test_case "cancel sifts the filler up" `Quick
            test_cancel_sifts_up;
          Alcotest.test_case "cancel after fire or twice" `Quick
            test_cancel_idempotent;
        ] );
      qsuite "heap-props" [ prop_heap_sorted; prop_heap_interleaved ];
      ( "engine",
        [
          Alcotest.test_case "clock advances on sleep" `Quick
            test_clock_advances;
          Alcotest.test_case "spawn order" `Quick test_spawn_ordering;
          Alcotest.test_case "same-instant fifo" `Quick test_same_instant_fifo;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "run until in the past" `Quick
            test_run_until_in_the_past;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "nested spawn and self" `Quick
            test_nested_spawn_and_self;
          Alcotest.test_case "deadlock detection" `Quick
            test_exec_deadlock_detected;
        ] );
      ( "engine-props",
        List.map QCheck_alcotest.to_alcotest [ prop_sleepers_under_kills ]
        @ [
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 33 |])
              prop_engine_mix;
          ] );
      ( "kill",
        [
          Alcotest.test_case "kill sleeping process" `Quick test_kill_sleeping;
          Alcotest.test_case "kill parked in yield, kill woken" `Quick
            test_kill_parked_in_yield_and_woken;
          Alcotest.test_case "kill group" `Quick test_kill_group;
          Alcotest.test_case "spawn inherits group" `Quick
            test_spawn_inherits_group;
          Alcotest.test_case "waker cannot resurrect" `Quick
            test_killed_not_resumed_by_waker;
          Alcotest.test_case "mutex handoff skips dead waiter" `Quick
            test_mutex_handoff_skips_dead_waiter;
          Alcotest.test_case "semaphore skips dead waiter" `Quick
            test_semaphore_release_skips_dead_waiter;
          Alcotest.test_case "mailbox send skips dead receiver" `Quick
            test_mailbox_send_skips_dead_receiver;
          Alcotest.test_case "on_terminate" `Quick test_on_terminate;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks until fill" `Quick
            test_ivar_read_blocks;
          Alcotest.test_case "multiple readers" `Quick
            test_ivar_multiple_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "timeout expires" `Quick test_ivar_timeout_expires;
          Alcotest.test_case "timeout delivers" `Quick
            test_ivar_timeout_delivers;
          Alcotest.test_case "value kept after timeout" `Quick
            test_ivar_value_kept_after_timeout;
          Alcotest.test_case "poll loop leaves nothing registered" `Quick
            test_ivar_poll_loop_leaves_nothing;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "receivers fifo" `Quick
            test_mailbox_receivers_fifo;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "counts" `Quick test_semaphore_counts;
          Alcotest.test_case "blocks and wakes" `Quick
            test_semaphore_blocks_and_wakes;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_mutex_mutual_exclusion;
          Alcotest.test_case "exception releases" `Quick
            test_mutex_exception_releases;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "order and concurrency" `Quick
            test_fanout_order_and_concurrency;
          Alcotest.test_case "empty and singleton" `Quick
            test_fanout_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick
            test_fanout_exception_propagates;
          Alcotest.test_case "iter waits for all" `Quick
            test_fanout_iter_waits_for_all;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty series" `Quick test_stats_empty_series;
          Alcotest.test_case "empty percentile" `Quick
            test_stats_empty_percentile;
          Alcotest.test_case "counter" `Quick test_stats_counter;
          Alcotest.test_case "large series regression" `Quick
            test_stats_large_series_regression;
          Alcotest.test_case "hist exact aggregates" `Quick
            test_hist_exact_aggregates;
          Alcotest.test_case "hist accuracy at 10k" `Quick
            test_hist_accuracy_10k;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounds ];
    ]
