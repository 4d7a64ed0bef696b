(* The sweep coordinator: backoff policy, subprocess supervision with
   injected worker kills, the incomplete-shard merge refusal, the
   remote sweep-shard path against a live daemon, and the small-sweep
   pool bypass. The load-bearing assertion throughout: the coordinated
   merged report is byte-identical to the unsharded run's, whatever
   happened to the workers along the way. *)

open Helpers
module Json = Lcp_obs.Json
module Run_cfg = Lcp_obs.Run_cfg
module Sweep = Lcp_engine.Sweep
module Checkpoint = Lcp_engine.Checkpoint
module Coordinator = Lcp_serve.Coordinator
module Protocol = Lcp_serve.Protocol
module Server = Lcp_serve.Server
module Session = Lcp_serve.Session
module Client = Lcp_serve.Client

let check_str = Alcotest.(check string)

(* the real binary the coordinator forks; the test executable lives in
   _build/default/test/ next to _build/default/bin/main.exe *)
let lcp_bin =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lcp-test-coord-%d-%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir d 0o700;
    d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  end

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let suite_of key = (Option.get (Lcp.Registry.find key)).Lcp.Registry.suite

(* The unsharded reference: the same sweep run in-process through one
   checkpoint, rendered exactly as --merge would render it. *)
let reference_report ~decoder ~n =
  let path = Filename.temp_file "lcp-test-coord-ref" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs:1 () in
  ignore
    (Lcp.Checker.soundness_sweep ~cfg (suite_of decoder) ~n
       ~checkpoint:{ Checkpoint.path; resume = false; tag = decoder });
  match Checkpoint.load path with
  | Error e -> Alcotest.fail e
  | Ok ck -> Json.to_string_pretty (Checkpoint.report_json ck)

let run_exn config =
  match Coordinator.run config with
  | Ok o -> o
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* pure policy                                                         *)

let test_backoff_capped () =
  let c =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:5 ~shards:2
         ~dir:"unused")
      with
      Coordinator.backoff_base_s = 0.25;
      backoff_max_s = 8.;
    }
  in
  check_bool "attempt 1 launches immediately" true
    (Coordinator.backoff_s c ~attempt:1 = 0.);
  check_bool "attempt 2 waits the base" true
    (Coordinator.backoff_s c ~attempt:2 = 0.25);
  check_bool "attempt 3 doubles" true
    (Coordinator.backoff_s c ~attempt:3 = 0.5);
  check_bool "attempt 4 doubles again" true
    (Coordinator.backoff_s c ~attempt:4 = 1.0);
  check_bool "large attempts are capped" true
    (Coordinator.backoff_s c ~attempt:40 = 8.);
  check_bool "backoff never decreases" true
    (let rec mono prev k =
       k > 12
       ||
       let b = Coordinator.backoff_s c ~attempt:k in
       b >= prev && mono b (k + 1)
     in
     mono 0. 1)

(* ------------------------------------------------------------------ *)
(* the small-sweep pool bypass                                         *)

let test_small_sweep_bypass () =
  check_bool "cutoff is positive" true (Sweep.small_sweep_cutoff > 0);
  (* n=5 keeps 11 classes, far under the cutoff: the wide-jobs run must
     take the sequential path yet report identical counters *)
  let counters jobs =
    Sweep.clear_cache ();
    let cfg = Run_cfg.make ~jobs () in
    (Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:5)
      .Sweep.counters
  in
  check_bool "n=5 kept is under the cutoff" true
    (let cfg = Run_cfg.make ~jobs:1 () in
     Sweep.clear_cache ();
     let s = Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:5 in
     s.Sweep.counters.Sweep.kept < Sweep.small_sweep_cutoff);
  check_bool "counters are jobs-invariant through the bypass" true
    (counters 1 = counters 8)

(* ------------------------------------------------------------------ *)
(* subprocess supervision                                              *)

let test_subprocess_matches_unsharded () =
  with_dir @@ fun dir ->
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:6 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Subprocess { bin = lcp_bin };
      poll_s = 0.01;
    }
  in
  let o = run_exn config in
  check_int "one launch per shard" 2 o.Coordinator.launched;
  check_int "no restarts on a clean run" 0 o.Coordinator.restarts;
  check_str "merged report == unsharded report"
    (reference_report ~decoder:"degree-one" ~n:6)
    (Json.to_string_pretty o.Coordinator.report)

let test_kill_restart_recovers () =
  with_dir @@ fun dir ->
  let spawns = ref [] in
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:7 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Subprocess { bin = lcp_bin };
      poll_s = 0.01;
      backoff_base_s = 0.01;
      inject_kill = Some 0;
      on_spawn =
        (fun ~shard ~attempt ~pid:_ -> spawns := (shard, attempt) :: !spawns);
    }
  in
  let o = run_exn config in
  check_bool "the injected kill forced a restart" true
    (o.Coordinator.restarts >= 1);
  check_bool "shard 0 was attempted at least twice" true
    (List.exists
       (fun r ->
         r.Coordinator.shard = 0 && r.Coordinator.attempts >= 2)
       o.Coordinator.shard_reports);
  check_bool "the restart was observed by on_spawn" true
    (List.mem (0, 2) !spawns);
  check_str "merged report survives the kill byte-for-byte"
    (reference_report ~decoder:"degree-one" ~n:7)
    (Json.to_string_pretty o.Coordinator.report)

(* ------------------------------------------------------------------ *)
(* deterministic preemption and the merge refusal                      *)

let test_merge_refuses_incomplete_shard () =
  let path = Filename.temp_file "lcp-test-coord-incomplete" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs:1 () in
  let s =
    Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:6 ~max_chunks:1
      ~checkpoint:{ Checkpoint.path; resume = false; tag = "degree-one" }
  in
  check_bool "preempted run checked only its first chunk" true
    (s.Sweep.counters.Sweep.checked < s.Sweep.counters.Sweep.kept);
  let ck =
    match Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.fail e
  in
  check_bool "checkpoint is valid but incomplete" true
    (not ck.Checkpoint.complete);
  check_bool "heartbeat was stamped" true (ck.Checkpoint.saved_at > 0);
  match Checkpoint.merge [ ck ] with
  | Ok _ -> Alcotest.fail "merging an incomplete shard must fail"
  | Error msg ->
      check_bool "error names the shard" true
        (contains ~needle:"shard 0/1 is incomplete" msg);
      check_bool "error reports the progress" true
        (contains
           ~needle:
             (Printf.sprintf "%d/%d classes done" ck.Checkpoint.completed
                ck.Checkpoint.kept)
           msg);
      check_bool "error carries a real heartbeat timestamp" true
        (contains ~needle:"last checkpoint 2" msg
        && not (contains ~needle:"unknown" msg))

let test_preempted_checkpoint_resumes () =
  let path = Filename.temp_file "lcp-test-coord-resume" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs:1 () in
  ignore
    (Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:6
       ~max_chunks:1
       ~checkpoint:{ Checkpoint.path; resume = false; tag = "degree-one" });
  Sweep.clear_cache ();
  ignore
    (Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:6
       ~checkpoint:{ Checkpoint.path; resume = true; tag = "degree-one" });
  match Checkpoint.load path with
  | Error e -> Alcotest.fail e
  | Ok ck ->
      check_bool "resumed run completed the shard" true ck.Checkpoint.complete;
      check_str "resumed report == unsharded report"
        (reference_report ~decoder:"degree-one" ~n:6)
        (Json.to_string_pretty (Checkpoint.report_json ck))

(* ------------------------------------------------------------------ *)
(* the remote executor and the daemon's coordinated path               *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp-test-coord-%d-%d.sock" (Unix.getpid ()) !counter)

let with_server f =
  let socket_path = fresh_socket () in
  let config =
    {
      (Server.default_config ~socket_path) with
      Server.workers = 2;
      limits = { Session.default_limits with Session.shard_bin = lcp_bin };
    }
  in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f socket_path t)

let test_remote_shards_match_unsharded () =
  with_server @@ fun socket _t ->
  with_dir @@ fun dir ->
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:6 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Remote { sockets = [ socket ] };
      poll_s = 0.01;
    }
  in
  let o = run_exn config in
  check_int "one remote launch per shard" 2 o.Coordinator.launched;
  check_int "no steals when the daemon answers" 0 o.Coordinator.steals;
  check_str "remotely merged report == unsharded report"
    (reference_report ~decoder:"degree-one" ~n:6)
    (Json.to_string_pretty o.Coordinator.report)

let test_daemon_runs_coordinated_sweep () =
  with_server @@ fun socket _t ->
  let req =
    {
      Protocol.kind =
        Protocol.Sweep
          {
            decoder = "degree-one";
            n = 5;
            strategy = "orderly";
            early_exit = false;
            shards = 2;
          };
      opts = Protocol.default_opts;
    }
  in
  Client.with_connection socket @@ fun c ->
  match Client.request c req with
  | Error e -> Alcotest.fail e
  | Ok resp ->
      check_bool "coordinated request is answered ok" true
        (resp.Protocol.status = Protocol.Done);
      let report =
        match Json.member "report" resp.Protocol.result with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      check_str "daemon's coordinated report == unsharded report"
        (reference_report ~decoder:"degree-one" ~n:5)
        (Json.to_string_pretty report);
      let restarts =
        match Json.member "coordinator" resp.Protocol.result with
        | Ok coord -> (
            match Json.member "restarts" coord with
            | Ok (Json.Int r) -> r
            | _ -> Alcotest.fail "coordinator payload lacks restarts")
        | Error e -> Alcotest.fail e
      in
      check_int "clean daemon run needs no restarts" 0 restarts

let test_sweep_shard_protocol_round_trip () =
  let req =
    {
      Protocol.kind =
        Protocol.Sweep_shard
          {
            decoder = "even-cycle";
            n = 6;
            strategy = "orderly";
            shards = 3;
            shard = 2;
          };
      opts = Protocol.default_opts;
    }
  in
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Error e -> Alcotest.fail e
  | Ok round -> (
      match round.Protocol.kind with
      | Protocol.Sweep_shard { decoder; n; strategy; shards; shard } ->
          check_str "decoder survives" "even-cycle" decoder;
          check_int "n survives" 6 n;
          check_str "strategy survives" "orderly" strategy;
          check_int "shards survives" 3 shards;
          check_int "shard survives" 2 shard
      | _ -> Alcotest.fail "round-tripped to the wrong kind")

let suite =
  [
    case "backoff: immediate first attempt, doubling, capped"
      test_backoff_capped;
    case "small sweeps bypass the domain pool, counters invariant"
      test_small_sweep_bypass;
    case "protocol: sweep-shard round-trips" test_sweep_shard_protocol_round_trip;
    slow_case "subprocess shards merge to the unsharded bytes"
      test_subprocess_matches_unsharded;
    slow_case "injected SIGKILL: restart from checkpoint, identical report"
      test_kill_restart_recovers;
    slow_case "merge refuses an incomplete shard, naming its heartbeat"
      test_merge_refuses_incomplete_shard;
    slow_case "a preempted checkpoint resumes to the identical report"
      test_preempted_checkpoint_resumes;
    slow_case "remote sweep-shard executor merges to the unsharded bytes"
      test_remote_shards_match_unsharded;
    slow_case "daemon runs a coordinated sweep server-side"
      test_daemon_runs_coordinated_sweep;
  ]
