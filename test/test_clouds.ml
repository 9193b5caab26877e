(* Tests for the Clouds object-thread layer: values, object memory,
   persistent heap, object lifecycle, invocation (local, nested,
   remote), threads, terminals and the name server. *)

open Sim
open Clouds

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The paper's §2.4 example. *)
let rectangle =
  Obj_class.define ~name:"rectangle"
    [
      Obj_class.entry "size" (fun ctx arg ->
          let x, y = Value.to_pair arg in
          Memory.set_int ctx.Ctx.mem 0 (Value.to_int x);
          Memory.set_int ctx.Ctx.mem 8 (Value.to_int y);
          Value.Unit);
      Obj_class.entry "area" (fun ctx _ ->
          Value.Int
            (Memory.get_int ctx.Ctx.mem 0 * Memory.get_int ctx.Ctx.mem 8));
    ]

let with_system ?(compute = 2) ?(data = 1) ?(workstations = 1) f =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute ~data ~workstations () in
      f sys)

(* ------------------------------------------------------------------ *)
(* Values *)

let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                return Value.Unit;
                map (fun b -> Value.Bool b) bool;
                map (fun i -> Value.Int i) int;
                map (fun f -> Value.Float f) (float_bound_exclusive 1e9);
                map (fun s -> Value.Str s) (string_size (0 -- 20));
              ]
          else
            oneof
              [
                map (fun i -> Value.Int i) int;
                map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2));
                map (fun l -> Value.List l) (list_size (0 -- 4) (self (n / 3)));
              ])
        n)

let arbitrary_value = QCheck.make ~print:(Format.asprintf "%a" Value.pp) value_gen

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrip" ~count:300 arbitrary_value
    (fun v -> Value.equal v (Value.decode (Value.encode v)))

let prop_value_size_matches =
  QCheck.Test.make ~name:"declared size = encoded size" ~count:300
    arbitrary_value (fun v -> Value.size v = Bytes.length (Value.encode v))

let test_value_accessors () =
  check_int "int" 42 (Value.to_int (Value.Int 42));
  Alcotest.(check string) "str" "x" (Value.to_string (Value.Str "x"));
  check_bool "wrong ctor raises" true
    (try
       ignore (Value.to_int Value.Unit);
       false
     with Invalid_argument _ -> true);
  let g = Ra.Sysname.make_gen ~node:4 in
  let s = Ra.Sysname.fresh g in
  check_bool "sysname roundtrip" true
    (Ra.Sysname.equal s (Value.to_sysname (Value.of_sysname s)))

(* ------------------------------------------------------------------ *)
(* Object memory + persistent heap (through a real object) *)

let memory_probe =
  Obj_class.define ~name:"memprobe" ~heap_pages:2 ~vheap_pages:1
    [
      Obj_class.entry "rw" (fun ctx _ ->
          let m = ctx.Ctx.mem in
          Memory.set_int m 0 123;
          Memory.set_string m 8 "hello";
          Memory.set_value m 64 (Value.List [ Value.Int 1; Value.Str "two" ]);
          check_int "int back" 123 (Memory.get_int m 0);
          Alcotest.(check string) "string back" "hello" (Memory.get_string m 8);
          check_bool "value back" true
            (Value.equal
               (Value.List [ Value.Int 1; Value.Str "two" ])
               (Memory.get_value m 64));
          Memory.set_int m ~region:Memory.Volatile 0 7;
          check_int "volatile back" 7
            (Memory.get_int m ~region:Memory.Volatile 0);
          Value.Unit);
      Obj_class.entry "bounds" (fun ctx _ ->
          let m = ctx.Ctx.mem in
          let raised =
            try
              Memory.set_int m (Memory.region_size m Memory.Data) 1;
              false
            with Invalid_argument _ -> true
          in
          Value.Bool raised);
      Obj_class.entry "heap_alloc" (fun ctx arg ->
          let off = Pheap.alloc (ctx.Ctx.pheap ()) (Value.to_int arg) in
          Value.Int off);
      Obj_class.entry "heap_free" (fun ctx arg ->
          Pheap.free (ctx.Ctx.pheap ()) (Value.to_int arg);
          Value.Unit);
      Obj_class.entry "heap_live" (fun ctx _ ->
          Value.Int (Pheap.allocated_bytes (ctx.Ctx.pheap ())));
      Obj_class.entry "vheap_get" (fun ctx _ ->
          Value.Int (Memory.get_int ctx.Ctx.mem ~region:Memory.Volatile 0));
      Obj_class.entry "vheap_set" (fun ctx arg ->
          Memory.set_int ctx.Ctx.mem ~region:Memory.Volatile 0
            (Value.to_int arg);
          Value.Unit);
    ]

let direct_invoke sys ?(node = sys.cluster.Cluster.compute_nodes.(0))
    ?(thread_id = 0) obj entry arg =
  Object_manager.invoke sys.om ~node ~thread_id ~origin:None ~txn:None ~obj
    ~entry arg

let test_object_memory () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster memory_probe;
      let obj = Object_manager.create_object sys.om ~class_name:"memprobe" Value.Unit in
      ignore (direct_invoke sys obj "rw" Value.Unit);
      check_bool "bounds enforced" true
        (Value.to_bool (direct_invoke sys obj "bounds" Value.Unit)))

let test_pheap_alloc_free_reuse () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster memory_probe;
      let obj = Object_manager.create_object sys.om ~class_name:"memprobe" Value.Unit in
      let a = Value.to_int (direct_invoke sys obj "heap_alloc" (Value.Int 100)) in
      let b = Value.to_int (direct_invoke sys obj "heap_alloc" (Value.Int 100)) in
      check_bool "distinct blocks" true (a <> b);
      check_int "live bytes" 200
        (Value.to_int (direct_invoke sys obj "heap_live" Value.Unit));
      ignore (direct_invoke sys obj "heap_free" (Value.Int a));
      check_int "live after free" 100
        (Value.to_int (direct_invoke sys obj "heap_live" Value.Unit));
      let c = Value.to_int (direct_invoke sys obj "heap_alloc" (Value.Int 80)) in
      check_int "freed block reused" a c)

let test_pheap_exhaustion () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster memory_probe;
      let obj = Object_manager.create_object sys.om ~class_name:"memprobe" Value.Unit in
      let raised =
        try
          ignore (direct_invoke sys obj "heap_alloc" (Value.Int (3 * 8192)));
          false
        with Out_of_memory -> true
      in
      check_bool "out of memory" true raised)

let test_volatile_heap_not_shared_across_nodes () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster memory_probe;
      let obj = Object_manager.create_object sys.om ~class_name:"memprobe" Value.Unit in
      let n0 = sys.cluster.Cluster.compute_nodes.(0) in
      let n1 = sys.cluster.Cluster.compute_nodes.(1) in
      ignore (direct_invoke sys ~node:n0 obj "vheap_set" (Value.Int 99));
      check_int "visible on same node" 99
        (Value.to_int (direct_invoke sys ~node:n0 obj "vheap_get" Value.Unit));
      check_int "fresh on other node (volatile)" 0
        (Value.to_int (direct_invoke sys ~node:n1 obj "vheap_get" Value.Unit)))

(* ------------------------------------------------------------------ *)
(* Object lifecycle and invocation *)

let test_rectangle_paper_example () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      ignore (direct_invoke sys rect "size" (Value.Pair (Value.Int 5, Value.Int 10)));
      (* the paper's example prints 50 *)
      check_int "area" 50 (Value.to_int (direct_invoke sys rect "area" Value.Unit)))

let test_persistence_across_nodes () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let n0 = sys.cluster.Cluster.compute_nodes.(0) in
      let n1 = sys.cluster.Cluster.compute_nodes.(1) in
      ignore
        (direct_invoke sys ~node:n0 rect "size"
           (Value.Pair (Value.Int 6, Value.Int 7)));
      (* the object logically resides everywhere: another compute
         server sees the same persistent data through DSM *)
      check_int "area on other node" 42
        (Value.to_int (direct_invoke sys ~node:n1 rect "area" Value.Unit)))

let test_two_instances_are_independent () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let r1 = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let r2 = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      ignore (direct_invoke sys r1 "size" (Value.Pair (Value.Int 2, Value.Int 3)));
      ignore (direct_invoke sys r2 "size" (Value.Pair (Value.Int 10, Value.Int 10)));
      check_int "r1" 6 (Value.to_int (direct_invoke sys r1 "area" Value.Unit));
      check_int "r2" 100 (Value.to_int (direct_invoke sys r2 "area" Value.Unit)))

let test_constructor_runs () =
  with_system (fun sys ->
      let cls =
        Obj_class.define ~name:"counter"
          ~constructor:(fun ctx arg ->
            Memory.set_int ctx.Ctx.mem 0 (Value.to_int arg))
          [
            Obj_class.entry "get" (fun ctx _ ->
                Value.Int (Memory.get_int ctx.Ctx.mem 0));
          ]
      in
      Cluster.register_class sys.cluster cls;
      let obj = Object_manager.create_object sys.om ~class_name:"counter" (Value.Int 17) in
      check_int "constructor initialized" 17
        (Value.to_int (direct_invoke sys obj "get" Value.Unit)))

let test_errors () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      check_bool "no such entry" true
        (try
           ignore (direct_invoke sys rect "perimeter" Value.Unit);
           false
         with Object_manager.No_entry _ -> true);
      check_bool "no such class" true
        (try
           ignore
             (Object_manager.create_object sys.om ~class_name:"nonesuch" Value.Unit);
           false
         with Object_manager.No_class _ -> true);
      let bogus = Ra.Sysname.fresh (Ra.Sysname.make_gen ~node:77) in
      check_bool "no such object" true
        (try
           ignore (direct_invoke sys bogus "area" Value.Unit);
           false
         with Object_manager.No_object _ -> true))

let test_delete_object () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      ignore (direct_invoke sys rect "size" (Value.Pair (Value.Int 1, Value.Int 1)));
      Object_manager.delete_object sys.om rect;
      check_bool "deleted object gone" true
        (try
           ignore (direct_invoke sys rect "area" Value.Unit);
           false
         with Object_manager.No_object _ -> true))

let test_nested_invocation () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let doubler =
        Obj_class.define ~name:"doubler"
          [
            Obj_class.entry "double_area" (fun ctx arg ->
                let rect = Value.to_sysname arg in
                let area =
                  Value.to_int (ctx.Ctx.invoke ~obj:rect ~entry:"area" Value.Unit)
                in
                Value.Int (2 * area));
          ]
      in
      Cluster.register_class sys.cluster doubler;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let dbl = Object_manager.create_object sys.om ~class_name:"doubler" Value.Unit in
      ignore (direct_invoke sys rect "size" (Value.Pair (Value.Int 3, Value.Int 4)));
      check_int "nested invocation" 24
        (Value.to_int
           (direct_invoke sys dbl "double_area" (Value.of_sysname rect))))

let test_remote_invocation () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let n0 = sys.cluster.Cluster.compute_nodes.(0) in
      let n1 = sys.cluster.Cluster.compute_nodes.(1) in
      ignore
        (direct_invoke sys ~node:n0 rect "size"
           (Value.Pair (Value.Int 8, Value.Int 8)));
      let v =
        Object_manager.invoke_remote sys.om ~from:n0 ~target:n1.Ra.Node.id
          ~thread_id:1 ~origin:None ~txn:None ~obj:rect ~entry:"area" Value.Unit
      in
      check_int "remote result" 64 (Value.to_int v);
      (* a remote failure surfaces as Invoke_error *)
      check_bool "remote error" true
        (try
           ignore
             (Object_manager.invoke_remote sys.om ~from:n0 ~target:n1.Ra.Node.id
                ~thread_id:1 ~origin:None ~txn:None ~obj:rect
                ~entry:"nonesuch" Value.Unit);
           false
         with Ctx.Invoke_error _ -> true))

let test_same_node_bypass () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let n0 = sys.cluster.Cluster.compute_nodes.(0) in
      ignore
        (direct_invoke sys ~node:n0 rect "size"
           (Value.Pair (Value.Int 5, Value.Int 6)));
      (* dispatching to our own node must skip RaTP: no new frames on
         the wire (the object is already resident), and the bypass
         counter ticks *)
      let before_frames =
        Net.Ethernet.frames_sent sys.cluster.Cluster.ether
      in
      let local_invokes () =
        Obs.Registry.count (Object_manager.metrics sys.om) "om/local_invokes"
      in
      let before_local = local_invokes () in
      let v =
        Object_manager.invoke_remote sys.om ~from:n0 ~target:n0.Ra.Node.id
          ~thread_id:1 ~origin:None ~txn:None ~obj:rect ~entry:"area"
          Value.Unit
      in
      check_int "bypass result" 30 (Value.to_int v);
      check_int "one bypass counted" (before_local + 1) (local_invokes ());
      check_int "no frames on the wire" before_frames
        (Net.Ethernet.frames_sent sys.cluster.Cluster.ether);
      (* failures keep remote semantics: Invoke_error, not raw raise *)
      check_bool "bypass error matches remote path" true
        (try
           ignore
             (Object_manager.invoke_remote sys.om ~from:n0
                ~target:n0.Ra.Node.id ~thread_id:1 ~origin:None ~txn:None
                ~obj:rect ~entry:"nonesuch" Value.Unit);
           false
         with Ctx.Invoke_error _ -> true))

let test_warm_vs_cold_invocation () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let n1 = sys.cluster.Cluster.compute_nodes.(1) in
      (* cold: n1 has never seen this object *)
      let t0 = Sim.now () in
      ignore (direct_invoke sys ~node:n1 rect "area" Value.Unit);
      let cold = Time.to_ms_f (Time.diff (Sim.now ()) t0) in
      let t1 = Sim.now () in
      ignore (direct_invoke sys ~node:n1 rect "area" Value.Unit);
      let warm = Time.to_ms_f (Time.diff (Sim.now ()) t1) in
      check_bool
        (Printf.sprintf "warm %.1fms in [4, 12]" warm)
        true
        (warm >= 4.0 && warm <= 12.0);
      check_bool
        (Printf.sprintf "cold %.1fms much slower" cold)
        true
        (cold > 5.0 *. warm))

(* ------------------------------------------------------------------ *)
(* Per-invocation and per-thread memory *)

let scratch_probe =
  Obj_class.define ~name:"scratch"
    [
      Obj_class.entry "set_thread_mem" (fun ctx arg ->
          Hashtbl.replace ctx.Ctx.per_thread "k" arg;
          Value.Unit);
      Obj_class.entry "get_thread_mem" (fun ctx _ ->
          match Hashtbl.find_opt ctx.Ctx.per_thread "k" with
          | Some v -> v
          | None -> Value.Unit);
      Obj_class.entry "per_invocation_is_fresh" (fun ctx _ ->
          let fresh = not (Hashtbl.mem ctx.Ctx.per_invocation "k") in
          Hashtbl.replace ctx.Ctx.per_invocation "k" Value.Unit;
          Value.Bool fresh);
    ]

let test_memory_lifetimes () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster scratch_probe;
      let obj = Object_manager.create_object sys.om ~class_name:"scratch" Value.Unit in
      (* per-thread memory persists across invocations of one thread *)
      ignore (direct_invoke sys ~thread_id:1 obj "set_thread_mem" (Value.Int 5));
      check_int "same thread sees it" 5
        (Value.to_int (direct_invoke sys ~thread_id:1 obj "get_thread_mem" Value.Unit));
      check_bool "other thread does not" true
        (direct_invoke sys ~thread_id:2 obj "get_thread_mem" Value.Unit = Value.Unit);
      (* per-invocation memory is fresh every time *)
      check_bool "fresh 1" true
        (Value.to_bool
           (direct_invoke sys ~thread_id:1 obj "per_invocation_is_fresh" Value.Unit));
      check_bool "fresh 2" true
        (Value.to_bool
           (direct_invoke sys ~thread_id:1 obj "per_invocation_is_fresh" Value.Unit)))

(* ------------------------------------------------------------------ *)
(* Threads *)

let test_thread_run_and_join () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let t1 =
        Thread.start sys.om ~obj:rect ~entry:"size"
          (Value.Pair (Value.Int 9, Value.Int 9))
      in
      (match Thread.join t1 with Value.Unit -> () | _ -> Alcotest.fail "size reply");
      let t2 = Thread.start sys.om ~obj:rect ~entry:"area" Value.Unit in
      check_int "area via thread" 81 (Value.to_int (Thread.join t2));
      check_bool "visited recorded" true
        (List.exists (Ra.Sysname.equal rect) (Thread.visited sys.om t2)))

(* Thread 0 ([Object_manager.call]) never ends, so it must not keep a
   visit log: one entry per call would grow without bound. *)
let test_pseudo_thread_no_visit_log () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect =
        Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit
      in
      for _ = 1 to 100 do
        ignore (Object_manager.call sys.om rect "area" Value.Unit)
      done;
      check_int "thread 0 visit log" 0
        (List.length (Object_manager.visited sys.om 0)))

let test_thread_failure_surfaces () =
  with_system (fun sys ->
      let bomb =
        Obj_class.define ~name:"bomb"
          [ Obj_class.entry "go" (fun _ _ -> failwith "boom") ]
      in
      Cluster.register_class sys.cluster bomb;
      let obj = Object_manager.create_object sys.om ~class_name:"bomb" Value.Unit in
      let t = Thread.start sys.om ~obj ~entry:"go" Value.Unit in
      check_bool "failure propagates" true
        (match Thread.try_join t with
        | Error (Failure msg) -> String.equal msg "boom"
        | Ok _ | Error _ -> false))

let test_thread_kill () =
  with_system (fun sys ->
      let slow =
        Obj_class.define ~name:"slowpoke"
          [
            Obj_class.entry "spin" (fun ctx _ ->
                ctx.Ctx.compute (Time.sec 30);
                Value.Unit);
          ]
      in
      Cluster.register_class sys.cluster slow;
      let obj = Object_manager.create_object sys.om ~class_name:"slowpoke" Value.Unit in
      let t = Thread.start sys.om ~obj ~entry:"spin" Value.Unit in
      Sim.sleep (Time.ms 100);
      Thread.kill t;
      (match Thread.try_join t with
      | Error Thread.Cancelled -> ()
      | Ok _ | Error _ -> Alcotest.fail "killed thread must report Cancelled");
      check_bool "killed well before completion" true (Sim.now () < Time.sec 1))

let test_thread_node_crash_resolves_join () =
  (* the thread's machine crashes: joiners must not hang forever *)
  with_system (fun sys ->
      let slow =
        Obj_class.define ~name:"slowpoke2"
          [
            Obj_class.entry "spin" (fun ctx _ ->
                ctx.Ctx.compute (Time.sec 30);
                Value.Unit);
          ]
      in
      Cluster.register_class sys.cluster slow;
      let obj = Object_manager.create_object sys.om ~class_name:"slowpoke2" Value.Unit in
      let t = Thread.start sys.om ~obj ~entry:"spin" Value.Unit in
      Sim.sleep (Time.ms 100);
      (match Cluster.node_by_id sys.cluster (Thread.node t) with
      | Some node -> Ra.Node.crash node
      | None -> Alcotest.fail "node missing");
      match Thread.try_join t with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "thread on a crashed machine cannot succeed")

let test_thread_scheduling_round_robin () =
  with_system ~compute:2 (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      let t1 = Thread.start sys.om ~obj:rect ~entry:"area" Value.Unit in
      let t2 = Thread.start sys.om ~obj:rect ~entry:"area" Value.Unit in
      check_bool "spread over servers" true (Thread.node t1 <> Thread.node t2);
      ignore (Thread.join t1);
      ignore (Thread.join t2);
      let pinned =
        Thread.start sys.om ~on:(Thread.node t1) ~obj:rect ~entry:"area" Value.Unit
      in
      check_int "pinned placement" (Thread.node t1) (Thread.node pinned);
      ignore (Thread.join pinned))

let test_least_loaded_scheduling () =
  with_system ~compute:3 (fun sys ->
      Cluster.set_scheduler sys.cluster `Least_loaded;
      let slow =
        Obj_class.define ~name:"hog"
          [
            Obj_class.entry "spin" (fun ctx _ ->
                ctx.Ctx.compute (Time.sec 2);
                Value.Unit);
            Obj_class.entry "quick" (fun _ _ -> Value.Unit);
          ]
      in
      Cluster.register_class sys.cluster slow;
      let obj = Object_manager.create_object sys.om ~class_name:"hog" Value.Unit in
      (* load up the first two compute servers *)
      let busy1 =
        Thread.start sys.om
          ~on:sys.cluster.Cluster.compute_nodes.(0).Ra.Node.id
          ~obj ~entry:"spin" Value.Unit
      in
      let busy2 =
        Thread.start sys.om
          ~on:sys.cluster.Cluster.compute_nodes.(1).Ra.Node.id
          ~obj ~entry:"spin" Value.Unit
      in
      Sim.sleep (Time.ms 300);
      (* the scheduler must route new work to the idle third server *)
      let t = Thread.start sys.om ~obj ~entry:"quick" Value.Unit in
      check_int "placed on the idle server"
        sys.cluster.Cluster.compute_nodes.(2).Ra.Node.id (Thread.node t);
      ignore (Thread.join t);
      ignore (Thread.join busy1);
      ignore (Thread.join busy2))

let test_terminal_output_routing () =
  with_system (fun sys ->
      let greeter =
        Obj_class.define ~name:"greeter"
          [
            Obj_class.entry "hello" (fun ctx arg ->
                ctx.Ctx.print ("hello " ^ Value.to_string arg);
                Value.Unit);
          ]
      in
      Cluster.register_class sys.cluster greeter;
      let obj = Object_manager.create_object sys.om ~class_name:"greeter" Value.Unit in
      let wk, term = sys.cluster.Cluster.workstations.(0) in
      let t =
        Thread.start sys.om ~origin:wk.Ra.Node.id ~obj ~entry:"hello"
          (Value.Str "world")
      in
      ignore (Thread.join t);
      (* output lands at the originating workstation, wherever the
         thread executed *)
      Sim.sleep (Time.ms 50);
      Alcotest.(check (list string))
        "terminal got it" [ "hello world" ] (Terminal.output term))

let test_object_concurrency_control () =
  with_system ~compute:1 (fun sys ->
      let counter =
        Obj_class.define ~name:"sync-counter"
          [
            Obj_class.entry "incr" (fun ctx _ ->
                let m = ctx.Ctx.obj_mutex "lock" in
                Sim.Mutex.with_lock m (fun () ->
                    let v = Memory.get_int ctx.Ctx.mem 0 in
                    ctx.Ctx.compute (Time.ms 1);
                    Memory.set_int ctx.Ctx.mem 0 (v + 1));
                Value.Unit);
            Obj_class.entry "get" (fun ctx _ ->
                Value.Int (Memory.get_int ctx.Ctx.mem 0));
          ]
      in
      Cluster.register_class sys.cluster counter;
      let obj =
        Object_manager.create_object sys.om ~class_name:"sync-counter" Value.Unit
      in
      let threads =
        List.init 5 (fun _ -> Thread.start sys.om ~obj ~entry:"incr" Value.Unit)
      in
      List.iter (fun t -> ignore (Thread.join t)) threads;
      check_int "no lost updates" 5
        (Value.to_int (direct_invoke sys obj "get" Value.Unit)))

(* ------------------------------------------------------------------ *)
(* Name server *)

let test_name_server () =
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      Name_server.bind sys.om ~name:"Rect01" rect;
      (match Name_server.lookup sys.om "Rect01" with
      | Some s -> check_bool "bound" true (Ra.Sysname.equal s rect)
      | None -> Alcotest.fail "lookup failed");
      check_bool "missing name" true (Name_server.lookup sys.om "nope" = None);
      (* rebinding replaces *)
      let rect2 = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      Name_server.bind sys.om ~name:"Rect01" rect2;
      (match Name_server.lookup sys.om "Rect01" with
      | Some s -> check_bool "rebound" true (Ra.Sysname.equal s rect2)
      | None -> Alcotest.fail "rebind lost");
      check_int "one binding listed" 1 (List.length (Name_server.bindings sys.om));
      Name_server.unbind sys.om "Rect01";
      check_bool "unbound" true (Name_server.lookup sys.om "Rect01" = None))

let test_concurrent_binds_one_shard () =
  (* Every bind into a shard splices the shard's persistent list under
     the shard write lock.  With one shard, k concurrent binds of
     distinct names must all survive: an unserialized splice loses
     one writer's node. *)
  let k = 8 in
  with_system (fun sys ->
      Cluster.set_name_sharding sys.cluster false;
      Cluster.register_class sys.cluster rectangle;
      ignore (Name_server.boot sys.om);
      let objs =
        List.init k (fun i ->
            ( Printf.sprintf "obj-%d" i,
              Object_manager.create_object sys.om ~class_name:"rectangle"
                Value.Unit ))
      in
      Sim.Fanout.iter objs ~f:(fun (name, obj) ->
          Name_server.bind sys.om ~name obj);
      let bound =
        List.sort compare (List.map fst (Name_server.bindings sys.om))
      in
      Alcotest.(check (list string))
        "all k bindings listed"
        (List.sort compare (List.map fst objs))
        bound)

let test_bind_then_invoke_like_the_paper () =
  (* rect.bind("Rect01"); rect.size(5,10); print rect.area() = 50 *)
  with_system (fun sys ->
      Cluster.register_class sys.cluster rectangle;
      let rect = Object_manager.create_object sys.om ~class_name:"rectangle" Value.Unit in
      Name_server.bind sys.om ~name:"Rect01" rect;
      match Name_server.lookup sys.om "Rect01" with
      | None -> Alcotest.fail "bind/lookup"
      | Some bound ->
          ignore
            (direct_invoke sys bound "size" (Value.Pair (Value.Int 5, Value.Int 10)));
          check_int "prints 50" 50
            (Value.to_int (direct_invoke sys bound "area" Value.Unit)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "clouds"
    [
      qsuite "value-props" [ prop_value_roundtrip; prop_value_size_matches ];
      ( "value",
        [ Alcotest.test_case "accessors" `Quick test_value_accessors ] );
      ( "memory",
        [
          Alcotest.test_case "typed access" `Quick test_object_memory;
          Alcotest.test_case "pheap alloc/free/reuse" `Quick
            test_pheap_alloc_free_reuse;
          Alcotest.test_case "pheap exhaustion" `Quick test_pheap_exhaustion;
          Alcotest.test_case "volatile heap per node" `Quick
            test_volatile_heap_not_shared_across_nodes;
          Alcotest.test_case "memory lifetimes" `Quick test_memory_lifetimes;
        ] );
      ( "objects",
        [
          Alcotest.test_case "rectangle (paper example)" `Quick
            test_rectangle_paper_example;
          Alcotest.test_case "persistence across nodes" `Quick
            test_persistence_across_nodes;
          Alcotest.test_case "instances independent" `Quick
            test_two_instances_are_independent;
          Alcotest.test_case "constructor" `Quick test_constructor_runs;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "delete" `Quick test_delete_object;
          Alcotest.test_case "nested invocation" `Quick test_nested_invocation;
          Alcotest.test_case "remote invocation" `Quick test_remote_invocation;
          Alcotest.test_case "same-node bypass" `Quick test_same_node_bypass;
          Alcotest.test_case "warm vs cold invocation" `Quick
            test_warm_vs_cold_invocation;
        ] );
      ( "threads",
        [
          Alcotest.test_case "run and join" `Quick test_thread_run_and_join;
          Alcotest.test_case "pseudo-thread keeps no visit log" `Quick
            test_pseudo_thread_no_visit_log;
          Alcotest.test_case "failure surfaces" `Quick
            test_thread_failure_surfaces;
          Alcotest.test_case "kill" `Quick test_thread_kill;
          Alcotest.test_case "node crash resolves join" `Quick
            test_thread_node_crash_resolves_join;
          Alcotest.test_case "scheduling" `Quick
            test_thread_scheduling_round_robin;
          Alcotest.test_case "least-loaded scheduling" `Quick
            test_least_loaded_scheduling;
          Alcotest.test_case "terminal routing" `Quick
            test_terminal_output_routing;
          Alcotest.test_case "concurrency control" `Quick
            test_object_concurrency_control;
        ] );
      ( "names",
        [
          Alcotest.test_case "bind/lookup/unbind" `Quick test_name_server;
          Alcotest.test_case "concurrent binds into one shard" `Quick
            test_concurrent_binds_one_shard;
          Alcotest.test_case "paper workflow" `Quick
            test_bind_then_invoke_like_the_paper;
        ] );
    ]
