(* The deterministic fault-injection harness: every named scenario
   must satisfy its recovery invariants, and a (scenario, seed) pair
   must reproduce the identical outcome. *)

open Experiments

let test_scenario name () =
  let o = Faults.run name in
  Alcotest.(check (list string))
    (name ^ " invariants hold")
    [] (Faults.violations o)

let test_deterministic () =
  List.iter
    (fun name ->
      let a = Faults.run ~seed:7 name in
      let b = Faults.run ~seed:7 name in
      (* every field, the violations and the per-call trace included *)
      Alcotest.(check bool) (name ^ " reproducible from seed") true (a = b))
    Faults.scenarios

let test_unknown_scenario () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Faults.run: unknown scenario \"no-such\"") (fun () ->
      ignore (Faults.run "no-such"))

let () =
  Alcotest.run "faults"
    [
      ( "scenarios",
        List.map
          (fun n -> Alcotest.test_case n `Quick (test_scenario n))
          Faults.scenarios );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same outcome" `Quick
            test_deterministic;
          Alcotest.test_case "unknown scenario" `Quick test_unknown_scenario;
        ] );
    ]
