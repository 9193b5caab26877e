(* Acceptance tests for the group-commit / ARIES WAL pipeline:
   the A/B throughput ratio, the kill-mid-commit recovery scenario,
   and seed determinism of both. *)

module C = Experiments.Commit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The headline acceptance: the same write-heavy 64-session load,
   identical durability (acks only after the commit record is on
   disk), must sustain at least 5x the commits per second with the
   group-commit daemon on. *)
let test_group_commit_speedup () =
  match C.run () with
  | [ off; on ] ->
      check_bool "off arm forces each record" true (off.C.wal_flushes = 0);
      check_bool "on arm batches" true (on.C.mean_batch > 2.0);
      check_int "same commits off" (64 * 12) off.C.committed;
      check_int "same commits on" (64 * 12) on.C.committed;
      let ratio = on.C.throughput /. off.C.throughput in
      if ratio < 5.0 then
        Alcotest.failf
          "group commit speedup %.2fx < 5x (off %.0f/s, on %.0f/s)" ratio
          off.C.throughput on.C.throughput
  | points -> Alcotest.failf "expected 2 smoke cells, got %d" (List.length points)

(* Kill a data server mid-workload (after at least one fuzzy
   checkpoint has truncated the log), restart it through ARIES
   replay: every acknowledged commit survives, nothing unacknowledged
   materializes. *)
let test_crash_recovery () =
  let o = C.run_crash () in
  if o.C.violations <> [] then
    Alcotest.failf "crash recovery violated invariants: %s"
      (String.concat "; " o.C.violations);
  check_int "no committed write lost" 0 o.C.lost;
  check_int "no ghost write" 0 o.C.ghosts;
  check_bool "a fuzzy checkpoint was cut" true (o.C.checkpoints >= 1);
  check_bool "the log was truncated" true (o.C.log_truncated >= 1);
  check_int "every session finished" (o.C.sessions * o.C.deposits_per_session)
    o.C.acked

let test_crash_recovery_deterministic () =
  let a = C.run_crash ~seed:7 () in
  let b = C.run_crash ~seed:7 () in
  (* every field, the violations and the per-session trace included *)
  check_bool "same seed, same outcome" true (a = b)

let () =
  Alcotest.run "commit"
    [
      ( "pipeline",
        [
          Alcotest.test_case "group commit >= 5x" `Quick
            test_group_commit_speedup;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "kill mid-commit" `Quick test_crash_recovery;
          Alcotest.test_case "deterministic" `Quick
            test_crash_recovery_deterministic;
        ] );
    ]
