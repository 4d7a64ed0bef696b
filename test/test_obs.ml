(* The Lcp_obs layer: span nesting, counters and gauges, the Metrics
   JSON round-trip, Run_cfg semantics, the JSON sink, and the
   counter-determinism contract exercised on a real n = 6 sweep. *)

open Helpers
module Metrics = Lcp_obs.Metrics
module Sink = Lcp_obs.Sink
module Run_cfg = Lcp_obs.Run_cfg
module Json = Lcp_obs.Json

let test_span_nesting () =
  let m = Metrics.create () in
  Metrics.with_span m "a" (fun () ->
      Metrics.with_span m "b" (fun () -> ());
      Metrics.with_span m "b" (fun () -> ()));
  Metrics.with_span m "a" (fun () -> ());
  (match Metrics.span m "a" with
  | Some (entries, _) -> check_int "a entered twice" 2 entries
  | None -> Alcotest.fail "span a missing");
  (match Metrics.span m "a/b" with
  | Some (entries, _) -> check_int "a/b aggregates both entries" 2 entries
  | None -> Alcotest.fail "span a/b missing");
  check_bool "no top-level b" true (Metrics.span m "b" = None)

let test_span_survives_exception () =
  let m = Metrics.create () in
  (try Metrics.with_span m "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  Metrics.with_span m "after" (fun () -> ());
  check_bool "raising span still recorded" true (Metrics.span m "boom" <> None);
  check_bool "stack popped: next span is top-level" true
    (Metrics.span m "after" <> None)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  Metrics.incr m ~by:0 "never";
  check_int "increments sum" 5 (Metrics.counter m "c");
  check_int "by:0 materializes at 0" 0 (Metrics.counter m "never");
  check_bool "materialized key listed" true
    (List.mem_assoc "never" (Metrics.counters m));
  Metrics.set_gauge m "g" 7;
  Metrics.set_gauge m "g" 9;
  check_bool "gauge last write wins" true (Metrics.gauge m "g" = Some 9)

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "x";
  Metrics.incr m "y";
  Metrics.set_gauge m "g" 1;
  Metrics.with_span m "s" (fun () -> Metrics.with_span m "t" (fun () -> ()));
  let s = Json.to_string (Metrics.to_json m) in
  match Json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Metrics.of_json j with
      | Error e -> Alcotest.fail e
      | Ok m' ->
          Alcotest.(check string) "byte-identical re-rendering" s
            (Json.to_string (Metrics.to_json m')))

let test_schema_versions () =
  check_int "schema_version bumped for the counter rename" 2
    Metrics.schema_version;
  let rejected version =
    match
      Json.of_string
        (Printf.sprintf
           {|{"schema_version": %d, "counters": {"masks_scanned": 64},
              "gauges": {}, "spans": {}}|}
           version)
    with
    | Error e -> Alcotest.fail e
    | Ok j -> (
        match Metrics.of_json j with
        | Ok _ -> Alcotest.failf "schema_version %d loaded" version
        | Error e ->
            check_bool
              (Printf.sprintf "v%d is rejected with an error naming the version"
                 version)
              true
              (contains ~needle:(Printf.sprintf "schema_version %d" version) e))
  in
  rejected 1;
  rejected 3

let test_run_cfg_semantics () =
  let cfg = Run_cfg.make () in
  check_bool "jobs normalized to >= 1" true (cfg.Run_cfg.jobs >= 1);
  check_int "jobs:0 means the recommended count" cfg.Run_cfg.jobs
    (Run_cfg.make ~jobs:0 ()).Run_cfg.jobs;
  check_int "sequential forces 1" 1 (Run_cfg.sequential cfg).Run_cfg.jobs;
  let a = Random.State.int (Run_cfg.rng cfg) 1_000_000 in
  let b = Random.State.int (Run_cfg.rng cfg) 1_000_000 in
  check_int "rng replays identically per phase" a b;
  check_bool "no deadline never expires" false (Run_cfg.expired cfg)

let test_json_sink () =
  let path = Filename.temp_file "lcp_obs" ".json" in
  let cfg = Run_cfg.make ~jobs:1 ~sink:(Sink.json_file path) () in
  Run_cfg.count cfg ~by:2 "written";
  Run_cfg.span cfg "phase" (fun () -> ());
  Run_cfg.flush cfg;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Metrics.of_json j with
      | Error e -> Alcotest.fail e
      | Ok m -> check_int "counter survives the file" 2 (Metrics.counter m "written"))

(* Regression for the tailing contract: the metrics file is rewritten
   atomically on EVERY event, so a reader that opens it mid-run — after
   any span closes, before the final flush — always sees one complete,
   parseable JSON document, never a torn or buffered prefix. *)
let test_json_sink_live () =
  let path = Filename.temp_file "lcp_obs_live" ".json" in
  let cfg = Run_cfg.make ~jobs:1 ~sink:(Sink.json_file path) () in
  let read_doc () =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with
    | Error e -> Alcotest.fail ("mid-run metrics file torn: " ^ e)
    | Ok j -> (
        match Metrics.of_json j with
        | Error e -> Alcotest.fail e
        | Ok m -> m)
  in
  Run_cfg.count cfg ~by:1 "step";
  Run_cfg.span cfg "phase1" (fun () -> ());
  (* no flush yet: the span-end event alone must have produced a
     complete document that already carries the counter *)
  let mid = read_doc () in
  check_int "mid-run counter visible" 1 (Metrics.counter mid "step");
  Run_cfg.count cfg ~by:1 "step";
  Run_cfg.span cfg "phase2" (fun () -> ());
  let mid2 = read_doc () in
  check_int "second span refreshed the file" 2 (Metrics.counter mid2 "step");
  Run_cfg.flush cfg;
  let final = read_doc () in
  check_int "flush is the same document" 2 (Metrics.counter final "step");
  Sys.remove path

(* The determinism contract, end to end: the same sweep at jobs=1 and
   jobs=4 must produce identical work-item counters (gauges and spans
   are exempt — they measure the actual execution). *)

let deterministic_counters =
  [
    "candidates_generated"; "connected"; "classes"; "dedup_hits"; "cache_hits";
    "cache_misses"; "kept"; "checked"; "passed"; "violations";
    "labelings_checked"; "eval_cache_hits"; "eval_cache_misses";
  ]

let sweep_counters jobs =
  Lcp_engine.Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs () in
  ignore (Lcp.Checker.soundness_sweep ~cfg Lcp.D_degree_one.suite ~n:6);
  List.map
    (fun name -> (name, Metrics.counter cfg.Run_cfg.metrics name))
    deterministic_counters

let test_counter_determinism () =
  let seq = sweep_counters 1 in
  let par = sweep_counters 4 in
  List.iter2
    (fun (name, a) (_, b) -> check_int ("jobs-invariant: " ^ name) a b)
    seq par;
  check_int "112 connected classes on 6 nodes" 112 (List.assoc "classes" seq);
  check_bool "search actually ran" true (List.assoc "labelings_checked" seq > 0)

let suite =
  [
    case "span nesting paths" test_span_nesting;
    case "span recorded on exception" test_span_survives_exception;
    case "counters and gauges" test_counters_and_gauges;
    case "metrics JSON round-trip" test_metrics_json_roundtrip;
    case "schema v2 only: rejects v1 and v3" test_schema_versions;
    case "run-cfg semantics" test_run_cfg_semantics;
    case "json sink writes parseable metrics" test_json_sink;
    case "json sink is live and atomic mid-run" test_json_sink_live;
    slow_case "counters identical jobs=1 vs jobs=4 (n=6 sweep)"
      test_counter_determinism;
  ]
