(* PR-8 concurrency sanitizer: the instrumented sync layer's event
   contract, the happens-before and lock-order analyses on hand-built
   traces, the deliberately broken defect doubles (the detector must
   fire), the shipped subsystems under seeded perturbation (the
   detector must stay silent while the scenarios' own FIFO / bound /
   lease-exclusivity invariants hold), and same-seed report
   determinism. *)

open Helpers
module Sync = Lcp_obs.Sync
module Finding = Lcp_race.Finding
module Hb = Lcp_race.Hb
module Lockgraph = Lcp_race.Lockgraph
module Scenario = Lcp_race.Scenario
module Race = Lcp_race.Race

let scenario name =
  match Scenario.find name with
  | Some s -> s
  | None -> Alcotest.fail ("scenario registry lost " ^ name)

let kinds findings = List.map (fun f -> f.Finding.kind) findings

(* ------------------------------------------------------------------ *)
(* the sync layer itself                                               *)

let test_disarmed_is_silent () =
  let m = Sync.mutex "test/silent" in
  let a = Sync.A.make "test/silent.a" 0 in
  Sync.with_lock m (fun () -> Sync.A.incr a);
  check_int "atomic works disarmed" 1 (Sync.A.get a);
  check_int "disarmed by default" 0 (Array.length (Sync.disarm ()));
  Sync.arm ();
  let trace = Sync.disarm () in
  check_int "nothing recorded while disarmed" 0 (Array.length trace)

let test_with_lock_exception_safe () =
  let m = Sync.mutex "test/exn" in
  (try Sync.with_lock m (fun () -> failwith "boom") with Failure _ -> ());
  (* the lock must have been released on the exception path *)
  check_bool "reacquirable" true (Sync.with_lock m (fun () -> true))

let test_trace_order_contract () =
  Sync.arm ();
  let m = Sync.mutex "test/order" in
  let a = Sync.A.make "test/order.a" 0 in
  Sync.with_lock m (fun () -> Sync.A.incr a);
  ignore (Sync.A.get a);
  let trace = Sync.disarm () in
  let ops = Array.to_list (Array.map (fun e -> e.Sync.op) trace) in
  check_bool "acquire/awrite/release/aread"
    true
    (ops = [ Sync.Acquire; Sync.A_write; Sync.Release; Sync.A_read ]);
  Array.iteri
    (fun i e -> check_int "seq is the array index" i e.Sync.seq)
    trace;
  check_bool "labels preserved" true (trace.(0).Sync.label = "test/order")

let test_spawn_join_edges () =
  Sync.arm ();
  let a = Sync.A.make "test/spawned.a" 0 in
  let h = Sync.spawn "test/child" (fun () -> Sync.A.incr a) in
  Sync.join h;
  let trace = Sync.disarm () in
  let find op =
    match Array.find_opt (fun e -> e.Sync.op = op) trace with
    | Some e -> e.Sync.seq
    | None -> Alcotest.fail "missing event"
  in
  check_bool "spawn before begin" true (find Sync.Spawn < find Sync.Begin);
  check_bool "begin before end" true (find Sync.Begin < find Sync.End);
  check_bool "end before join" true (find Sync.End < find Sync.Join)

let test_spawn_reraises () =
  let h = Sync.spawn "test/failing-child" (fun () -> failwith "child-boom") in
  match Sync.join h with
  | () -> Alcotest.fail "child exception was swallowed"
  | exception Failure msg -> check_bool "child exception" true (msg = "child-boom")

(* ------------------------------------------------------------------ *)
(* analyses on hand-built traces                                       *)

let ev seq thr op obj ?(arg = -1) label =
  { Sync.seq; dom = 0; thr; op; obj; arg; label }

let test_hb_flags_unsynchronized () =
  let trace =
    [|
      ev 0 1 Sync.V_write 100 "x";
      ev 1 2 Sync.V_write 100 "x";
    |]
  in
  match Hb.analyze ~scenario:"unit" trace with
  | [ f ] ->
      check_bool "data race" true (f.Finding.kind = Finding.Data_race);
      check_bool "subject is the var label" true (f.Finding.subject = "x")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_hb_lock_synchronizes () =
  let trace =
    [|
      ev 0 1 Sync.Acquire 50 "m";
      ev 1 1 Sync.V_write 100 "x";
      ev 2 1 Sync.Release 50 "m";
      ev 3 2 Sync.Acquire 50 "m";
      ev 4 2 Sync.V_write 100 "x";
      ev 5 2 Sync.Release 50 "m";
    |]
  in
  check_int "lock-ordered writes are clean" 0
    (List.length (Hb.analyze ~scenario:"unit" trace))

let test_hb_atomic_synchronizes () =
  (* message-passing via an atomic flag: write x, publish flag;
     consume flag, read x *)
  let trace =
    [|
      ev 0 1 Sync.V_write 100 "x";
      ev 1 1 Sync.A_write 60 "flag";
      ev 2 2 Sync.A_read 60 "flag";
      ev 3 2 Sync.V_read 100 "x";
    |]
  in
  check_int "atomic publish is clean" 0
    (List.length (Hb.analyze ~scenario:"unit" trace));
  (* without the flag hop the same accesses race *)
  let racy = [| ev 0 1 Sync.V_write 100 "x"; ev 1 2 Sync.V_read 100 "x" |] in
  check_int "without the hop it races" 1
    (List.length (Hb.analyze ~scenario:"unit" racy))

let test_hb_spawn_edge () =
  let trace =
    [|
      ev 0 1 Sync.V_write 100 "x";
      ev 1 1 Sync.Spawn 70 "child";
      ev 2 2 Sync.Begin 70 "child";
      ev 3 2 Sync.V_read 100 "x";
      ev 4 2 Sync.End 70 "child";
      ev 5 1 Sync.Join 70 "child";
      ev 6 1 Sync.V_write 100 "x";
    |]
  in
  check_int "spawn/join edges are clean" 0
    (List.length (Hb.analyze ~scenario:"unit" trace))

let test_hb_wait_edge () =
  (* Condition.wait releases the mutex: the waiter's section and the
     signaler's section are lock-ordered through Wait_begin/Wait_end *)
  let trace =
    [|
      ev 0 1 Sync.Acquire 50 "m";
      ev 1 1 Sync.Wait_begin 55 ~arg:50 "c";
      ev 2 2 Sync.Acquire 50 "m";
      ev 3 2 Sync.V_write 100 "x";
      ev 4 2 Sync.Signal 55 "c";
      ev 5 2 Sync.Release 50 "m";
      ev 6 1 Sync.Wait_end 55 ~arg:50 "c";
      ev 7 1 Sync.V_read 100 "x";
      ev 8 1 Sync.Release 50 "m";
    |]
  in
  check_int "wait edge is clean" 0
    (List.length (Hb.analyze ~scenario:"unit" trace))

let test_lockgraph_inversion () =
  let trace =
    [|
      ev 0 1 Sync.Acquire 50 "a";
      ev 1 1 Sync.Acquire 51 "b";
      ev 2 1 Sync.Release 51 "b";
      ev 3 1 Sync.Release 50 "a";
      ev 4 2 Sync.Acquire 51 "b";
      ev 5 2 Sync.Acquire 50 "a";
      ev 6 2 Sync.Release 50 "a";
      ev 7 2 Sync.Release 51 "b";
    |]
  in
  match Lockgraph.analyze ~scenario:"unit" trace with
  | [ f ] ->
      check_bool "inversion" true (f.Finding.kind = Finding.Lock_inversion);
      check_bool "both classes named" true (f.Finding.subject = "a <-> b")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_lockgraph_consistent_order_clean () =
  let trace =
    [|
      ev 0 1 Sync.Acquire 50 "a";
      ev 1 1 Sync.Acquire 51 "b";
      ev 2 1 Sync.Release 51 "b";
      ev 3 1 Sync.Release 50 "a";
      ev 4 2 Sync.Acquire 50 "a";
      ev 5 2 Sync.Acquire 51 "b";
      ev 6 2 Sync.Release 51 "b";
      ev 7 2 Sync.Release 50 "a";
    |]
  in
  check_int "consistent nesting is clean" 0
    (List.length (Lockgraph.analyze ~scenario:"unit" trace))

let test_lockgraph_leak () =
  let trace =
    [|
      ev 0 2 Sync.Begin 70 "leaky";
      ev 1 2 Sync.Acquire 50 "m";
      ev 2 2 Sync.End 70 "leaky";
    |]
  in
  match Lockgraph.analyze ~scenario:"unit" trace with
  | [ f ] ->
      check_bool "leak" true (f.Finding.kind = Finding.Lock_leak);
      check_bool "leak is a warning, not a violation" false
        (Finding.is_violation f)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_lockgraph_incomplete_thread_no_leak () =
  (* no End event: the thread was still running at disarm; truncation
     must not fabricate a leak *)
  let trace = [| ev 0 2 Sync.Begin 70 "t"; ev 1 2 Sync.Acquire 50 "m" |] in
  check_int "no leak without End" 0
    (List.length (Lockgraph.analyze ~scenario:"unit" trace))

(* ------------------------------------------------------------------ *)
(* the defect doubles: the detector must fire                          *)

let test_defect_counter_caught () =
  let r = Race.run ~seed:3 ~schedules:2 ~period:5 [ scenario "defect-counter" ] in
  check_bool "violations reported" true (Race.violations r <> []);
  check_bool "a data race, specifically" true
    (List.mem Finding.Data_race (kinds (Race.findings r)))

let test_defect_lock_order_caught () =
  let r =
    Race.run ~seed:3 ~schedules:2 ~period:5 [ scenario "defect-lock-order" ]
  in
  check_bool "violations reported" true (Race.violations r <> []);
  check_bool "a lock inversion, specifically" true
    (List.mem Finding.Lock_inversion (kinds (Race.findings r)))

(* ------------------------------------------------------------------ *)
(* shipped subsystems under perturbation: silent detector, holding
   invariants (satellite: jobq + lease-pool stress)                    *)

let run_clean name ~seed ~schedules =
  let r = Race.run ~seed ~schedules ~period:5 [ scenario name ] in
  List.iter
    (fun f ->
      Alcotest.fail
        (Format.asprintf "%s seed=%d: unexpected %a" name seed Finding.pp f))
    (Race.findings r)

let test_jobq_stress () =
  List.iter (fun seed -> run_clean "jobq" ~seed ~schedules:3) [ 1; 5; 11 ]

let test_lease_pool_stress () =
  List.iter (fun seed -> run_clean "lease-pool" ~seed ~schedules:3) [ 2; 9 ]

let test_metrics_clean () = run_clean "metrics" ~seed:4 ~schedules:2
let test_sweep_cache_clean () = run_clean "sweep-cache" ~seed:6 ~schedules:2
let test_pool_sweep_clean () = run_clean "pool-sweep" ~seed:8 ~schedules:2

(* ------------------------------------------------------------------ *)
(* report determinism                                                  *)

let test_same_seed_report_identical () =
  let render () =
    Lcp_obs.Json.to_string
      (Race.to_json
         (Race.run ~seed:9 ~schedules:3 ~period:5
            [ scenario "jobq"; scenario "metrics"; scenario "defect-counter" ]))
  in
  let a = render () and b = render () in
  check_bool "same seed renders byte-identical JSON" true (a = b)

let suite =
  [
    Alcotest.test_case "sync: disarmed is silent" `Quick test_disarmed_is_silent;
    Alcotest.test_case "sync: with_lock is exception-safe" `Quick
      test_with_lock_exception_safe;
    Alcotest.test_case "sync: trace order contract" `Quick
      test_trace_order_contract;
    Alcotest.test_case "sync: spawn/join edges" `Quick test_spawn_join_edges;
    Alcotest.test_case "sync: child exception re-raised at join" `Quick
      test_spawn_reraises;
    Alcotest.test_case "hb: unsynchronized writes race" `Quick
      test_hb_flags_unsynchronized;
    Alcotest.test_case "hb: lock edges" `Quick test_hb_lock_synchronizes;
    Alcotest.test_case "hb: atomic publish edges" `Quick
      test_hb_atomic_synchronizes;
    Alcotest.test_case "hb: spawn/join edges" `Quick test_hb_spawn_edge;
    Alcotest.test_case "hb: condition-wait edges" `Quick test_hb_wait_edge;
    Alcotest.test_case "lockgraph: AB/BA inversion" `Quick
      test_lockgraph_inversion;
    Alcotest.test_case "lockgraph: consistent order clean" `Quick
      test_lockgraph_consistent_order_clean;
    Alcotest.test_case "lockgraph: leak at thread end" `Quick
      test_lockgraph_leak;
    Alcotest.test_case "lockgraph: truncation fabricates no leak" `Quick
      test_lockgraph_incomplete_thread_no_leak;
    Alcotest.test_case "defect double: unguarded counter caught" `Quick
      test_defect_counter_caught;
    Alcotest.test_case "defect double: lock inversion caught" `Quick
      test_defect_lock_order_caught;
    Alcotest.test_case "jobq stress: FIFO/bound invariants, no findings"
      `Quick test_jobq_stress;
    Alcotest.test_case "lease-pool stress: exclusivity, no findings" `Quick
      test_lease_pool_stress;
    Alcotest.test_case "metrics scenario clean" `Quick test_metrics_clean;
    Alcotest.test_case "sweep-cache scenario clean" `Quick
      test_sweep_cache_clean;
    Alcotest.test_case "pool-sweep scenario clean" `Quick test_pool_sweep_clean;
    Alcotest.test_case "same-seed report is byte-identical" `Quick
      test_same_seed_report_identical;
  ]
