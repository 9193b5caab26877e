(* Tests for the application objects: distributed sorter, bank,
   kv-store, file and port simulation, and the active sensor. *)

open Sim
open Clouds

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let atomicity mgr path =
  Obs.Registry.count (Atomicity.Manager.metrics mgr) path

type env = { sys : Clouds.system; mgr : Atomicity.Manager.t }

let with_env ?(compute = 4) ?(data = 2) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute ~data ~workstations:1 () in
      let mgr =
        Atomicity.Manager.install sys.om ~deadlock_timeout:(Time.ms 300)
          ~max_retries:8 ()
      in
      f { sys; mgr })

(* ------------------------------------------------------------------ *)
(* Sorter *)

let test_sorter_correctness () =
  with_env (fun env ->
      let obj = Apps.Sorter.create env.sys.om ~capacity:4096 () in
      Apps.Sorter.fill env.sys.om ~obj ~n:4096 ~seed:7;
      let sum_before = Apps.Sorter.checksum env.sys.om ~obj in
      check_bool "unsorted initially" false (Apps.Sorter.is_sorted env.sys.om ~obj);
      let run = Apps.Sorter.distributed_sort env.sys.om ~obj ~workers:4 in
      check_bool "sorted" true (Apps.Sorter.is_sorted env.sys.om ~obj);
      check_int "same multiset" sum_before (Apps.Sorter.checksum env.sys.om ~obj);
      check_bool "pages moved between nodes" true (run.Apps.Sorter.remote_page_moves > 0))

let test_sorter_single_worker () =
  with_env (fun env ->
      let obj = Apps.Sorter.create env.sys.om ~capacity:1024 () in
      Apps.Sorter.fill env.sys.om ~obj ~n:1024 ~seed:3;
      let _run = Apps.Sorter.distributed_sort env.sys.om ~obj ~workers:1 in
      check_bool "sorted" true (Apps.Sorter.is_sorted env.sys.om ~obj))

let test_sorter_parallel_sort_phase_speedup () =
  (* the parallel phase must speed up with workers; total speedup is
     bounded by the sequential merge (the paper's
     computation-vs-communication trade-off) *)
  let sort_phase workers =
    with_env (fun env ->
        let obj = Apps.Sorter.create env.sys.om ~capacity:16384 () in
        Apps.Sorter.fill env.sys.om ~obj ~n:16384 ~seed:11;
        let run = Apps.Sorter.distributed_sort env.sys.om ~obj ~workers in
        check_bool "sorted" true (Apps.Sorter.is_sorted env.sys.om ~obj);
        run.Apps.Sorter.sort_ms)
  in
  let t1 = sort_phase 1 and t4 = sort_phase 4 in
  check_bool
    (Printf.sprintf "sort phase speeds up (%.0fms -> %.0fms)" t1 t4)
    true (t4 < t1)

let test_sorter_odd_sizes () =
  with_env (fun env ->
      let obj = Apps.Sorter.create env.sys.om ~capacity:1000 () in
      Apps.Sorter.fill env.sys.om ~obj ~n:777 ~seed:5;
      ignore (Apps.Sorter.distributed_sort env.sys.om ~obj ~workers:3);
      check_bool "sorted" true (Apps.Sorter.is_sorted env.sys.om ~obj))

(* ------------------------------------------------------------------ *)
(* Bank *)

let test_bank_deposit_modes () =
  with_env (fun env ->
      let acct = Apps.Bank.open_account env.sys.om ~balance:10 () in
      check_int "initial (constructor arg)" 10 (Apps.Bank.balance env.sys.om acct);
      check_int "gcp" 15 (Apps.Bank.deposit env.sys.om ~mode:Obj_class.Gcp acct 5);
      check_int "lcp" 20 (Apps.Bank.deposit env.sys.om ~mode:Obj_class.Lcp acct 5);
      check_int "s" 25 (Apps.Bank.deposit env.sys.om ~mode:Obj_class.S acct 5);
      check_int "final" 25 (Apps.Bank.balance env.sys.om acct))

let test_bank_transfer () =
  with_env (fun env ->
      let a = Apps.Bank.open_account env.sys.om ~home:1 ~balance:100 () in
      let b = Apps.Bank.open_account env.sys.om ~home:2 ~balance:0 () in
      let office = Apps.Bank.create_office env.sys.om in
      Apps.Bank.transfer env.sys.om ~office ~from_acct:a ~to_acct:b 40;
      check_int "debited" 60 (Apps.Bank.balance env.sys.om a);
      check_int "credited" 40 (Apps.Bank.balance env.sys.om b))

let test_bank_insufficient_rolls_back () =
  with_env (fun env ->
      let a = Apps.Bank.open_account env.sys.om ~balance:10 () in
      let b = Apps.Bank.open_account env.sys.om ~balance:0 () in
      let office = Apps.Bank.create_office env.sys.om in
      check_bool "raises" true
        (try
           Apps.Bank.transfer env.sys.om ~office ~from_acct:a ~to_acct:b 50;
           false
         with Apps.Bank.Insufficient -> true);
      check_int "a unchanged" 10 (Apps.Bank.balance env.sys.om a);
      check_int "b unchanged" 0 (Apps.Bank.balance env.sys.om b))

let test_bank_concurrent_transfers_conserve_money () =
  with_env (fun env ->
      let a = Apps.Bank.open_account env.sys.om ~home:1 ~balance:100 () in
      let b = Apps.Bank.open_account env.sys.om ~home:2 ~balance:100 () in
      let office = Apps.Bank.create_office env.sys.om in
      let mk from_acct to_acct amount =
        Thread.start env.sys.om ~obj:office ~entry:"transfer"
          (Value.List
             [ Value.of_sysname from_acct; Value.of_sysname to_acct;
               Value.Int amount ])
      in
      let threads =
        [ mk a b 10; mk b a 20; mk a b 5; mk b a 15; mk a b 25 ]
      in
      List.iter
        (fun th ->
          match Thread.try_join th with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "transfer failed: %s" (Printexc.to_string e))
        threads;
      let total =
        Apps.Bank.balance env.sys.om a + Apps.Bank.balance env.sys.om b
      in
      check_int "money conserved" 200 total)

(* ------------------------------------------------------------------ *)
(* KV store *)

let test_kv_basic () =
  with_env (fun env ->
      let kv = Apps.Kv_store.create env.sys.om in
      check_bool "missing" true (Apps.Kv_store.get env.sys.om kv "x" = None);
      Apps.Kv_store.put env.sys.om kv "x" (Value.Int 1);
      Apps.Kv_store.put env.sys.om kv "y" (Value.Str "hello");
      check_bool "x" true
        (Apps.Kv_store.get env.sys.om kv "x" = Some (Value.Int 1));
      check_bool "y" true
        (Apps.Kv_store.get env.sys.om kv "y" = Some (Value.Str "hello"));
      check_int "count" 2 (Apps.Kv_store.count env.sys.om kv);
      (* overwrite *)
      Apps.Kv_store.put env.sys.om kv "x" (Value.Int 2);
      check_bool "overwritten" true
        (Apps.Kv_store.get env.sys.om kv "x" = Some (Value.Int 2));
      check_int "count stable" 2 (Apps.Kv_store.count env.sys.om kv);
      check_bool "delete" true (Apps.Kv_store.delete env.sys.om kv "x");
      check_bool "delete missing" false (Apps.Kv_store.delete env.sys.om kv "x");
      check_int "count after delete" 1 (Apps.Kv_store.count env.sys.om kv))

let test_kv_many_keys () =
  with_env (fun env ->
      let kv = Apps.Kv_store.create env.sys.om in
      for i = 1 to 100 do
        Apps.Kv_store.put env.sys.om kv
          (Printf.sprintf "key-%d" i)
          (Value.Int (i * i))
      done;
      check_int "all present" 100 (Apps.Kv_store.count env.sys.om kv);
      check_bool "sample" true
        (Apps.Kv_store.get env.sys.om kv "key-37" = Some (Value.Int 1369));
      check_int "keys listed" 100 (List.length (Apps.Kv_store.keys env.sys.om kv)))

let test_kv_durable_put () =
  with_env (fun env ->
      let kv = Apps.Kv_store.create env.sys.om in
      Apps.Kv_store.put_durable env.sys.om kv "critical" (Value.Int 99);
      check_bool "readable" true
        (Apps.Kv_store.get env.sys.om kv "critical" = Some (Value.Int 99));
      check_bool "committed" true (atomicity env.mgr "atomicity/commits" >= 1))

let test_kv_visible_across_nodes () =
  with_env (fun env ->
      let kv = Apps.Kv_store.create env.sys.om in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      let put_on node k v =
        ignore
          (Object_manager.invoke env.sys.om ~node ~thread_id:0 ~origin:None
             ~txn:None ~obj:kv ~entry:"put"
             (Value.Pair (Value.Str k, v)))
      in
      let get_on node k =
        match
          Object_manager.invoke env.sys.om ~node ~thread_id:0 ~origin:None
            ~txn:None ~obj:kv ~entry:"get" (Value.Str k)
        with
        | Value.Pair (Value.Bool true, v) -> Some v
        | _ -> None
      in
      put_on n0 "shared" (Value.Int 42);
      check_bool "other node sees it" true
        (get_on n1 "shared" = Some (Value.Int 42)))

(* ------------------------------------------------------------------ *)
(* File objects *)

let test_file_read_write () =
  with_env (fun env ->
      let f = Apps.File_obj.create env.sys.om ~capacity:65536 in
      check_int "empty" 0 (Apps.File_obj.size env.sys.om f);
      Apps.File_obj.write env.sys.om f ~off:0 "hello world";
      check_int "size" 11 (Apps.File_obj.size env.sys.om f);
      Alcotest.(check string)
        "read back" "hello world"
        (Apps.File_obj.read env.sys.om f ~off:0 ~len:11);
      Alcotest.(check string)
        "partial" "world"
        (Apps.File_obj.read env.sys.om f ~off:6 ~len:100);
      Apps.File_obj.append env.sys.om f "!";
      check_int "appended" 12 (Apps.File_obj.size env.sys.om f);
      Apps.File_obj.truncate env.sys.om f 5;
      Alcotest.(check string)
        "truncated" "hello"
        (Apps.File_obj.read env.sys.om f ~off:0 ~len:100))

let test_file_large_spans_pages () =
  with_env (fun env ->
      let f = Apps.File_obj.create env.sys.om ~capacity:65536 in
      let big = String.init 20_000 (fun i -> Char.chr (65 + (i mod 26))) in
      Apps.File_obj.write env.sys.om f ~off:0 big;
      Alcotest.(check string)
        "page-spanning roundtrip" big
        (Apps.File_obj.read env.sys.om f ~off:0 ~len:20_000))

(* ------------------------------------------------------------------ *)
(* Ports *)

let test_port_fifo () =
  with_env (fun env ->
      let p = Apps.Port.create env.sys.om in
      Apps.Port.send env.sys.om p (Value.Int 1);
      Apps.Port.send env.sys.om p (Value.Int 2);
      check_int "pending" 2 (Apps.Port.pending env.sys.om p);
      check_bool "first" true (Apps.Port.receive env.sys.om p = Value.Int 1);
      check_bool "second" true (Apps.Port.receive env.sys.om p = Value.Int 2);
      check_bool "empty" true (Apps.Port.try_receive env.sys.om p = None))

let test_port_blocking_receive () =
  with_env (fun env ->
      let p = Apps.Port.create env.sys.om in
      let node = env.sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id in
      let got = Ivar.create () in
      ignore
        (Sim.spawn "receiver" (fun () ->
             Ivar.fill got (Apps.Port.receive env.sys.om ~on:node p)));
      Sim.sleep (Time.ms 50);
      check_bool "still blocked" true (Ivar.peek got = None);
      (* the sender must share the receiver's compute server *)
      ignore
        (Object_manager.invoke env.sys.om
           ~node:env.sys.cluster.Cluster.compute_nodes.(0)
           ~thread_id:0 ~origin:None ~txn:None ~obj:p ~entry:"send"
           (Value.Str "ping"));
      check_bool "woken with the message" true (Ivar.read got = Value.Str "ping"))

(* ------------------------------------------------------------------ *)
(* Sensor (active object) *)

(* ------------------------------------------------------------------ *)
(* Persistent Lisp environment *)

let test_lisp_basics () =
  with_env (fun env ->
      let l = Apps.Lisp_env.create env.sys.om in
      Alcotest.(check string) "arith" "6" (Apps.Lisp_env.eval env.sys.om l "(+ 1 2 3)");
      Alcotest.(check string) "nesting" "14"
        (Apps.Lisp_env.eval env.sys.om l "(+ 2 (* 3 4))");
      Alcotest.(check string) "quote" "(1 2 3)"
        (Apps.Lisp_env.eval env.sys.om l "'(1 2 3)");
      Alcotest.(check string) "let" "30"
        (Apps.Lisp_env.eval env.sys.om l "(let ((x 10) (y 20)) (+ x y))");
      Alcotest.(check string) "lists" "(1 2 3 4)"
        (Apps.Lisp_env.eval env.sys.om l "(append (list 1 2) (list 3 4))"))

let test_lisp_persistence_and_recursion () =
  with_env (fun env ->
      let l = Apps.Lisp_env.create env.sys.om in
      (* the definition persists in object memory between invocations *)
      ignore
        (Apps.Lisp_env.eval env.sys.om l
           "(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1)))))");
      Alcotest.(check string) "recursion over persisted definition" "3628800"
        (Apps.Lisp_env.eval env.sys.om l "(fact 10)");
      ignore (Apps.Lisp_env.eval env.sys.om l "(define counter 0)");
      ignore (Apps.Lisp_env.eval env.sys.om l "(set! counter (+ counter 1))");
      ignore (Apps.Lisp_env.eval env.sys.om l "(set! counter (+ counter 1))");
      Alcotest.(check string) "state accumulates" "2"
        (Apps.Lisp_env.eval env.sys.om l "counter");
      check_bool "bindings listed" true
        (List.mem "fact" (Apps.Lisp_env.bindings env.sys.om l)))

let test_lisp_closures () =
  with_env (fun env ->
      let l = Apps.Lisp_env.create env.sys.om in
      ignore
        (Apps.Lisp_env.eval env.sys.om l
           "(define make-adder (lambda (x) (lambda (y) (+ x y))))");
      ignore (Apps.Lisp_env.eval env.sys.om l "(define add5 (make-adder 5))");
      (* the closure - captured x included - survived persistence *)
      Alcotest.(check string) "closure applies" "12"
        (Apps.Lisp_env.eval env.sys.om l "(add5 7)"))

let test_lisp_environment_spans_nodes () =
  with_env (fun env ->
      let l = Apps.Lisp_env.create env.sys.om in
      let invoke_on node src =
        Clouds.Value.to_string
          (Object_manager.invoke env.sys.om ~node ~thread_id:0 ~origin:None
             ~txn:None ~obj:l ~entry:"eval" (Clouds.Value.Str src))
      in
      let n0 = env.sys.cluster.Cluster.compute_nodes.(0) in
      let n1 = env.sys.cluster.Cluster.compute_nodes.(1) in
      ignore (invoke_on n0 "(define greeting \"hello from node A\")");
      Alcotest.(check string)
        "environment is the same everywhere" "\"hello from node A\""
        (invoke_on n1 "greeting"))

let test_lisp_remote_eval () =
  with_env (fun env ->
      let a = Apps.Lisp_env.create env.sys.om in
      let b = Apps.Lisp_env.create env.sys.om in
      ignore (Apps.Lisp_env.eval env.sys.om a "(define (square n) (* n n))");
      (* inter-environment operation: B asks A to evaluate *)
      let src =
        Printf.sprintf "(remote \"%s\" \"(square 9)\")" (Ra.Sysname.to_string a)
      in
      Alcotest.(check string) "remote evaluation" "81"
        (Apps.Lisp_env.eval env.sys.om b src);
      (* and B's own environment is untouched *)
      check_bool "b has no square" true
        (not (List.mem "square" (Apps.Lisp_env.bindings env.sys.om b))))

let test_lisp_errors () =
  with_env (fun env ->
      let l = Apps.Lisp_env.create env.sys.om in
      let raises src =
        try
          ignore (Apps.Lisp_env.eval env.sys.om l src);
          false
        with Apps.Lisp_env.Lisp_error _ -> true
      in
      check_bool "unbound" true (raises "nonexistent");
      check_bool "unterminated" true (raises "(+ 1 2");
      check_bool "division by zero" true (raises "(/ 1 0)");
      check_bool "arity" true (raises "((lambda (x) x))");
      (* a failed evaluation must not corrupt the environment *)
      ignore (Apps.Lisp_env.eval env.sys.om l "(define ok 42)");
      check_bool "env intact after errors" true
        (String.equal (Apps.Lisp_env.eval env.sys.om l "ok") "42"))

let test_lisp_durable_eval () =
  with_env (fun env ->
      let l = Apps.Lisp_env.create env.sys.om in
      let commits0 = atomicity env.mgr "atomicity/commits" in
      ignore (Apps.Lisp_env.eval_durable env.sys.om l "(define vital 7)");
      check_bool "committed" true
        (atomicity env.mgr "atomicity/commits" > commits0);
      Alcotest.(check string) "readable" "7"
        (Apps.Lisp_env.eval env.sys.om l "vital"))

let alarm_cls =
  Obj_class.define ~name:"alarm"
    [
      Obj_class.entry "notify" (fun ctx _arg ->
          Memory.set_int ctx.Ctx.mem 0 (Memory.get_int ctx.Ctx.mem 0 + 1);
          Value.Unit);
      Obj_class.entry "alarms" (fun ctx _ -> Value.Int (Memory.get_int ctx.Ctx.mem 0));
    ]

let test_sensor_samples () =
  with_env (fun env ->
      Apps.Sensor.register env.sys.om ~interval:(Time.ms 20) ~threshold:60 ();
      Cluster.register_class env.sys.cluster alarm_cls;
      let alarm = Object_manager.create_object env.sys.om ~class_name:"alarm" Value.Unit in
      let sensor = Apps.Sensor.create env.sys.om ~alarm () in
      Sim.sleep (Time.ms 500);
      let n = Apps.Sensor.sample_count env.sys.om sensor in
      check_bool (Printf.sprintf "daemon sampled (%d)" n) true (n >= 20);
      check_bool "latest available" true (Apps.Sensor.latest env.sys.om sensor <> None);
      let hist = Apps.Sensor.history env.sys.om sensor ~n:10 in
      check_int "history length" 10 (List.length hist);
      check_bool "readings in range" true (List.for_all (fun r -> r >= 0 && r <= 100) hist);
      (* readings above the threshold notified the alarm object *)
      let alarms =
        Value.to_int
          (Object_manager.invoke env.sys.om
             ~node:env.sys.cluster.Cluster.compute_nodes.(0)
             ~thread_id:0 ~origin:None ~txn:None ~obj:alarm ~entry:"alarms"
             Value.Unit)
      in
      check_bool (Printf.sprintf "alarms raised (%d)" alarms) true (alarms > 0);
      (* stop the daemon so the simulation can drain *)
      ignore
        (Object_manager.invoke env.sys.om
           ~node:env.sys.cluster.Cluster.compute_nodes.(0)
           ~thread_id:0 ~origin:None ~txn:None ~obj:sensor ~entry:"stop"
           Value.Unit);
      let n1 = Apps.Sensor.sample_count env.sys.om sensor in
      Sim.sleep (Time.ms 200);
      let n2 = Apps.Sensor.sample_count env.sys.om sensor in
      check_bool "stopped" true (n2 <= n1 + 1))

let () =
  Alcotest.run "apps"
    [
      ( "sorter",
        [
          Alcotest.test_case "correctness" `Quick test_sorter_correctness;
          Alcotest.test_case "single worker" `Quick test_sorter_single_worker;
          Alcotest.test_case "parallel phase speedup" `Slow
            test_sorter_parallel_sort_phase_speedup;
          Alcotest.test_case "odd sizes" `Quick test_sorter_odd_sizes;
        ] );
      ( "bank",
        [
          Alcotest.test_case "deposit modes" `Quick test_bank_deposit_modes;
          Alcotest.test_case "transfer" `Quick test_bank_transfer;
          Alcotest.test_case "insufficient rolls back" `Quick
            test_bank_insufficient_rolls_back;
          Alcotest.test_case "concurrent transfers conserve money" `Quick
            test_bank_concurrent_transfers_conserve_money;
        ] );
      ( "kv",
        [
          Alcotest.test_case "basic" `Quick test_kv_basic;
          Alcotest.test_case "many keys" `Quick test_kv_many_keys;
          Alcotest.test_case "durable put" `Quick test_kv_durable_put;
          Alcotest.test_case "visible across nodes" `Quick
            test_kv_visible_across_nodes;
        ] );
      ( "files",
        [
          Alcotest.test_case "read write" `Quick test_file_read_write;
          Alcotest.test_case "page spanning" `Quick test_file_large_spans_pages;
        ] );
      ( "ports",
        [
          Alcotest.test_case "fifo" `Quick test_port_fifo;
          Alcotest.test_case "blocking receive" `Quick
            test_port_blocking_receive;
        ] );
      ( "sensor",
        [ Alcotest.test_case "active sampling" `Quick test_sensor_samples ] );
      ( "lisp",
        [
          Alcotest.test_case "basics" `Quick test_lisp_basics;
          Alcotest.test_case "persistence and recursion" `Quick
            test_lisp_persistence_and_recursion;
          Alcotest.test_case "closures" `Quick test_lisp_closures;
          Alcotest.test_case "environment spans nodes" `Quick
            test_lisp_environment_spans_nodes;
          Alcotest.test_case "remote evaluation" `Quick test_lisp_remote_eval;
          Alcotest.test_case "errors" `Quick test_lisp_errors;
          Alcotest.test_case "durable eval" `Quick test_lisp_durable_eval;
        ] );
    ]
