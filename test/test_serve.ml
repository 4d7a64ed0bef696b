(* The serve subsystem: protocol round-trips and tolerance, the
   bounded job queue, and a live daemon on a temp socket — server
   verdicts and work counters bit-identical to direct one-shot runs,
   queue-full rejection, deadline expiry, warm-cache accounting,
   coalescing, interim events. *)

open Helpers
module Json = Lcp_obs.Json
module Metrics = Lcp_obs.Metrics
module Run_cfg = Lcp_obs.Run_cfg
module Sink = Lcp_obs.Sink
module Protocol = Lcp_serve.Protocol
module Jobq = Lcp_serve.Jobq
module Server = Lcp_serve.Server
module Session = Lcp_serve.Session
module Client = Lcp_serve.Client

let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* JSON plumbing helpers                                               *)

let get json path =
  List.fold_left
    (fun j key ->
      match Json.member key j with
      | Ok v -> v
      | Error e -> Alcotest.fail (Printf.sprintf "member %s: %s" key e))
    json path

let get_int json path =
  match Json.to_int (get json path) with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let get_bool json path =
  match Json.to_bool (get json path) with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let parse_request json =
  match Protocol.request_of_json json with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* protocol round-trips                                                *)

let sample_requests =
  [
    { Protocol.kind = Protocol.Ping; opts = Protocol.default_opts };
    { Protocol.kind = Protocol.Metrics; opts = Protocol.default_opts };
    { Protocol.kind = Protocol.Shutdown; opts = Protocol.default_opts };
    {
      Protocol.kind = Protocol.Check { decoder = "degree-one"; graph = "cycle:5" };
      opts =
        {
          Protocol.jobs = Some 2;
          heavy = Some true;
          seed = Some 7;
          deadline_ms = Some 1500;
          progress = true;
        };
    };
    {
      Protocol.kind = Protocol.Prove { decoder = "spanning"; graph = "path:4" };
      opts = Protocol.default_opts;
    };
    {
      Protocol.kind =
        Protocol.Sweep
          {
            decoder = "union";
            n = 5;
            strategy = "mask-scan";
            early_exit = true;
            shards = 1;
          };
      opts = { Protocol.default_opts with Protocol.seed = Some 1 };
    };
    {
      Protocol.kind =
        Protocol.Sweep
          {
            decoder = "degree-one";
            n = 6;
            strategy = "orderly";
            early_exit = false;
            shards = 4;
          };
      opts = Protocol.default_opts;
    };
    {
      Protocol.kind =
        Protocol.Sweep_shard
          {
            decoder = "degree-one";
            n = 6;
            strategy = "orderly";
            shards = 3;
            shard = 2;
          };
      opts = Protocol.default_opts;
    };
    {
      Protocol.kind =
        Protocol.Lint
          { decoders = [ "trivial2"; "edge-bit" ]; max_n = Some 4; samples = Some 3 };
      opts = Protocol.default_opts;
    };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let back = parse_request (Protocol.request_to_json req) in
      check_bool
        ("request survives JSON: " ^ Protocol.kind_name req.Protocol.kind)
        true (back = req))
    sample_requests

let test_response_roundtrip () =
  let resp =
    {
      Protocol.id = 42;
      kind = "sweep";
      status = Protocol.Rejected;
      reason = Some "queue_full";
      result = Json.Obj [ ("ok", Json.Bool false) ];
    }
  in
  (match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok back -> check_bool "response survives JSON" true (back = resp)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun status ->
      let r = { resp with Protocol.status; reason = None } in
      match Protocol.response_of_json (Protocol.response_to_json r) with
      | Ok back -> check_bool "status survives JSON" true (back = r)
      | Error e -> Alcotest.fail e)
    [ Protocol.Done; Protocol.Rejected; Protocol.Failed; Protocol.Expired ]

let test_event_roundtrip () =
  List.iter
    (fun body ->
      let ev = { Protocol.event_id = 9; body } in
      let json = Protocol.event_to_json ev in
      check_bool "event lines are recognizable" true (Protocol.is_event json);
      match Protocol.event_of_json json with
      | Ok back -> check_bool "event survives JSON" true (back = ev)
      | Error e -> Alcotest.fail e)
    [
      Sink.Span_start "serve/sweep";
      Sink.Span_end ("serve/sweep", 12345);
      Sink.Progress "classes 12/112";
    ];
  let resp =
    Protocol.response_to_json
      {
        Protocol.id = 1;
        kind = "ping";
        status = Protocol.Done;
        reason = None;
        result = Json.Null;
      }
  in
  check_bool "responses are not events" false (Protocol.is_event resp)

let test_unknown_fields_tolerated () =
  let json =
    Json.Obj
      [
        ("schema_version", Json.Int Protocol.schema_version);
        ("kind", Json.String "sweep");
        ("decoder", Json.String "degree-one");
        ("n", Json.Int 4);
        ("a_future_member", Json.Obj [ ("x", Json.Int 1) ]);
        ("another", Json.List [ Json.String "ignored" ]);
      ]
  in
  let req = parse_request json in
  match req.Protocol.kind with
  | Protocol.Sweep { decoder; n; strategy; early_exit; shards } ->
      check_str "decoder" "degree-one" decoder;
      check_int "n" 4 n;
      check_str "default strategy" "orderly" strategy;
      check_bool "default early_exit" false early_exit;
      check_int "default shards" 1 shards
  | _ -> Alcotest.fail "parsed to the wrong kind"

(* The options that once picked the reference search paths are refused
   by name, with either value: ignoring them would hand an old client
   production tallies it did not ask for. *)
let test_retired_opts_rejected () =
  List.iter
    (fun (member, value) ->
      let json =
        Json.Obj
          [
            ("kind", Json.String "sweep");
            ("n", Json.Int 5);
            (member, Json.Bool value);
          ]
      in
      match Protocol.request_of_json json with
      | Ok _ ->
          Alcotest.fail (Printf.sprintf "request with %S accepted" member)
      | Error msg ->
          check_bool
            (Printf.sprintf "error names %S: %s" member msg)
            true
            (contains ~needle:member msg))
    [
      ("eval_cache", false);
      ("eval_cache", true);
      ("orbit_prune", false);
      ("orbit_prune", true);
    ]

let test_schema_version_checked () =
  let mk v =
    Json.Obj
      (("kind", Json.String "ping")
       :: (match v with None -> [] | Some v -> [ ("schema_version", Json.Int v) ]))
  in
  check_bool "current version accepted" true
    (Result.is_ok (Protocol.request_of_json (mk (Some Protocol.schema_version))));
  check_bool "absent version means current" true
    (Result.is_ok (Protocol.request_of_json (mk None)));
  (match Protocol.request_of_json (mk (Some 99)) with
  | Error msg ->
      let contains_99 =
        let ok = ref false in
        String.iteri
          (fun i c ->
            if c = '9' && i + 1 < String.length msg && msg.[i + 1] = '9' then
              ok := true)
          msg;
        !ok
      in
      check_bool "error names the offending version" true contains_99
  | Ok _ -> Alcotest.fail "future schema_version must be rejected");
  check_bool "unknown kind rejected" true
    (Result.is_error
       (Protocol.request_of_json (Json.Obj [ ("kind", Json.String "dance") ])))

let test_coalesce_key () =
  let sweep progress seed =
    {
      Protocol.kind =
        Protocol.Sweep
          {
            decoder = "degree-one";
            n = 5;
            strategy = "orderly";
            early_exit = false;
            shards = 1;
          };
      opts = { Protocol.default_opts with Protocol.progress; seed };
    }
  in
  let key r =
    match Protocol.coalesce_key r with
    | Some k -> k
    | None -> Alcotest.fail "job requests must have a key"
  in
  check_str "progress is presentation, not identity"
    (key (sweep false None))
    (key (sweep true None));
  check_bool "different seeds are different jobs" true
    (key (sweep false None) <> key (sweep false (Some 3)));
  check_bool "control requests have no key" true
    (Protocol.coalesce_key
       { Protocol.kind = Protocol.Ping; opts = Protocol.default_opts }
    = None)

(* ------------------------------------------------------------------ *)
(* the job queue                                                       *)

let test_jobq_fifo_and_bound () =
  let q = Jobq.create ~capacity:2 in
  check_bool "push 1" true (Jobq.try_push q 1);
  check_bool "push 2" true (Jobq.try_push q 2);
  check_bool "push 3 refused at capacity" false (Jobq.try_push q 3);
  check_int "depth" 2 (Jobq.depth q);
  check_bool "fifo 1" true (Jobq.pop q = Some 1);
  check_bool "room again" true (Jobq.try_push q 4);
  check_bool "fifo 2" true (Jobq.pop q = Some 2);
  check_bool "fifo 4" true (Jobq.pop q = Some 4);
  check_int "drained" 0 (Jobq.depth q)

let test_jobq_zero_capacity () =
  let q = Jobq.create ~capacity:0 in
  check_bool "zero capacity refuses everything" false (Jobq.try_push q 1);
  check_int "capacity recorded" 0 (Jobq.capacity q)

let test_jobq_close () =
  let q = Jobq.create ~capacity:4 in
  ignore (Jobq.try_push q 1);
  Jobq.close q;
  check_bool "closed" true (Jobq.is_closed q);
  check_bool "push after close refused" false (Jobq.try_push q 2);
  check_bool "backlog still drains" true (Jobq.pop q = Some 1);
  check_bool "then None" true (Jobq.pop q = None);
  check_bool "None is sticky" true (Jobq.pop q = None)

let test_jobq_blocking_pop () =
  let q = Jobq.create ~capacity:1 in
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        ignore (Jobq.try_push q 7))
      ()
  in
  check_bool "pop blocks until the producer arrives" true (Jobq.pop q = Some 7);
  Thread.join producer;
  let q2 = Jobq.create ~capacity:1 in
  let closer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Jobq.close q2)
      ()
  in
  check_bool "close wakes a blocked pop" true (Jobq.pop q2 = None);
  Thread.join closer

(* ------------------------------------------------------------------ *)
(* a live daemon on a temp socket                                      *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp-test-%d-%d.sock" (Unix.getpid ()) !counter)

let with_server ?(capacity = 8) ?(workers = 1) f =
  let socket_path = fresh_socket () in
  let config = { (Server.default_config ~socket_path) with capacity; workers } in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f socket_path t)

let job kind = { Protocol.kind; opts = Protocol.default_opts }

let request_exn ?on_event c req =
  match Client.request ?on_event c req with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let expect_done (resp : Protocol.response) =
  if resp.Protocol.status <> Protocol.Done then
    Alcotest.fail
      (Printf.sprintf "expected ok, got %s (%s)"
         (Protocol.status_name resp.Protocol.status)
         (Option.value resp.Protocol.reason ~default:"-"));
  resp.Protocol.result

let sweep_req ?(opts = Protocol.default_opts) ?(shards = 1) decoder n =
  {
    Protocol.kind =
      Protocol.Sweep
        { decoder; n; strategy = "orderly"; early_exit = false; shards };
    opts;
  }

(* The tentpole contract: for every registry decoder, the daemon's
   sweep payload carries the same verdict and the same deterministic
   work counters as a direct in-process run — even though the daemon
   is warm from previous requests and the direct run is not. *)
let test_server_matches_direct_sweeps () =
  with_server (fun socket _t ->
      Client.with_connection socket (fun c ->
          List.iter
            (fun (key, n) ->
              let entry =
                match Lcp.Registry.find key with
                | Some e -> e
                | None -> Alcotest.fail ("registry lost " ^ key)
              in
              let result = expect_done (request_exn c (sweep_req key n)) in
              let cfg = Run_cfg.make ~jobs:1 () in
              let summary =
                Lcp.Checker.soundness_sweep ~cfg entry.Lcp.Registry.suite ~n
              in
              let direct_pass =
                Lcp.Checker.is_pass (Lcp.Checker.verdict_of_sweep summary)
              in
              check_bool (key ^ ": verdict matches direct") direct_pass
                (get_bool result [ "ok" ]);
              let c_ = summary.Lcp_engine.Sweep.counters in
              List.iter
                (fun (name, direct) ->
                  check_int
                    (Printf.sprintf "%s: %s matches direct" key name)
                    direct
                    (get_int result [ "summary_counters"; name ]))
                [
                  ("candidates", c_.Lcp_engine.Sweep.candidates);
                  ("connected", c_.Lcp_engine.Sweep.connected);
                  ("classes", c_.Lcp_engine.Sweep.classes);
                  ("dedup_hits", c_.Lcp_engine.Sweep.dedup_hits);
                  ("kept", c_.Lcp_engine.Sweep.kept);
                  ("checked", c_.Lcp_engine.Sweep.checked);
                  ("passed", c_.Lcp_engine.Sweep.passed);
                  ("violations", c_.Lcp_engine.Sweep.violations);
                ];
              check_int
                (key ^ ": labelings_checked matches direct")
                (Metrics.counter cfg.Run_cfg.metrics "labelings_checked")
                (get_int result [ "counters"; "labelings_checked" ]))
            (List.map (fun k -> (k, 4)) Lcp.Registry.keys
            @ [ ("degree-one", 5) ])))

let test_server_matches_direct_check () =
  with_server (fun socket _t ->
      Client.with_connection socket (fun c ->
          List.iter
            (fun (decoder, graph, g) ->
              let result =
                expect_done
                  (request_exn c (job (Protocol.Check { decoder; graph })))
              in
              let suite =
                (Option.get (Lcp.Registry.find decoder)).Lcp.Registry.suite
              in
              let cfg = Run_cfg.make ~jobs:1 () in
              let direct =
                Lcp.Checker.soundness_exhaustive ~cfg suite
                  [ Lcp_local.Instance.make g ]
              in
              check_bool
                (decoder ^ " on " ^ graph ^ ": soundness verdict matches")
                (Lcp.Checker.is_pass direct)
                (get_bool result [ "soundness"; "ok" ]);
              check_int
                (decoder ^ " on " ^ graph ^ ": labelings_checked matches")
                (Metrics.counter cfg.Run_cfg.metrics "labelings_checked")
                (get_int result [ "soundness"; "labelings_checked" ]))
            [
              ("degree-one", "cycle:5", Lcp_graph.Builders.cycle 5);
              ("even-cycle", "cycle:5", Lcp_graph.Builders.cycle 5);
              ("union", "complete:4", Lcp_graph.Builders.complete 4);
            ]))

let test_queue_full_rejection () =
  with_server ~capacity:0 (fun socket _t ->
      Client.with_connection socket (fun c ->
          let resp = request_exn c (sweep_req "degree-one" 4) in
          check_bool "rejected" true (resp.Protocol.status = Protocol.Rejected);
          check_bool "reason is queue_full" true
            (resp.Protocol.reason = Some "queue_full");
          (* control requests bypass the queue and still work *)
          let ping = expect_done (request_exn c (job Protocol.Ping)) in
          check_bool "ping bypasses the full queue" true
            (get_bool ping [ "ok" ])))

let test_deadline_expired () =
  with_server (fun socket _t ->
      Client.with_connection socket (fun c ->
          let opts = { Protocol.default_opts with Protocol.deadline_ms = Some 0 } in
          let resp = request_exn c (sweep_req ~opts "degree-one" 5) in
          check_bool "expired" true (resp.Protocol.status = Protocol.Expired)))

let test_bad_requests_get_error_responses () =
  with_server (fun socket _t ->
      Client.with_connection socket (fun c ->
          (* unknown decoder: runs, fails with a usage reason *)
          let resp = request_exn c (sweep_req "no-such-decoder" 4) in
          check_bool "unknown decoder is an error" true
            (resp.Protocol.status = Protocol.Failed);
          (* future schema version: refused at the parse layer *)
          match
            Client.request_json c
              (Json.Obj
                 [ ("schema_version", Json.Int 99); ("kind", Json.String "ping") ])
          with
          | Error e -> Alcotest.fail e
          | Ok j -> (
              match Json.to_str (get j [ "status" ]) with
              | Ok s -> check_str "future schema refused" "error" s
              | Error e -> Alcotest.fail e)))

let test_malformed_line_gets_error_response () =
  with_server (fun socket _t ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let oc = Unix.out_channel_of_descr fd in
          let ic = Unix.in_channel_of_descr fd in
          output_string oc "this is not json\n";
          flush oc;
          match Json.of_string (input_line ic) with
          | Error e -> Alcotest.fail e
          | Ok j ->
              (match Json.to_str (get j [ "status" ]) with
              | Ok s -> check_str "malformed line answered with error" "error" s
              | Error e -> Alcotest.fail e)))

(* Warm-cache accounting: the identical sweep repeated against the
   daemon must (a) report the same deterministic work counters, (b)
   hit the warm iso-class cache, and (c) strictly increase the
   server's serve/cache_warm_hits counter. *)
let test_warm_cache_hits () =
  (* the iso-class cache is process-global and earlier tests in this
     binary have warmed it; start this daemon genuinely cold *)
  Lcp_engine.Sweep.clear_cache ();
  Lcp_engine.Eval_cache.clear_shared ();
  with_server (fun socket t ->
      Client.with_connection socket (fun c ->
          let warm_hits () =
            Metrics.counter (Server.metrics t) "serve/cache_warm_hits"
          in
          let run () = expect_done (request_exn c (sweep_req "even-cycle" 5)) in
          let first = run () in
          let h1 = warm_hits () in
          let second = run () in
          let h2 = warm_hits () in
          let third = run () in
          let h3 = warm_hits () in
          List.iter
            (fun name ->
              let a = get_int first [ "counters"; name ] in
              check_int ("warm = cold: " ^ name) a
                (get_int second [ "counters"; name ]);
              check_int ("warm = cold (3rd): " ^ name) a
                (get_int third [ "counters"; name ]))
            Session.work_counter_names;
          check_bool "same verdict" (get_bool first [ "ok" ])
            (get_bool second [ "ok" ]);
          check_int "cold run misses the class cache" 0
            (get_int first [ "cache"; "cache_hits" ]);
          check_bool "warm run hits the class cache" true
            (get_int second [ "cache"; "cache_hits" ] > 0);
          check_bool "warm hits counted (2nd)" true (h2 > h1);
          check_bool "warm hits counted (3rd)" true (h3 > h2)))

(* Coalescing: with one worker pinned on a slow job, two further
   arrivals of one identical request share a single computation — the
   follower gets the same payload under its own id and the daemon
   counts serve/coalesced. The slow job is the even-cycle n=6 sweep on
   cold tables (each test daemon starts with an empty table pool): its
   reply reported wall_ms 1466-1802 over three cold runs on a 2-vCPU
   x86-64 VM, several times the 0.2 s over which the other two
   requests arrive. *)
let test_coalescing () =
  with_server ~capacity:4 ~workers:1 (fun socket t ->
      let slow = sweep_req "even-cycle" 6 in
      let shared = sweep_req "degree-one" 5 in
      let results = Array.make 3 None in
      let ask i req =
        Thread.create
          (fun () ->
            Client.with_connection socket (fun c ->
                results.(i) <- Some (request_exn c req)))
          ()
      in
      let t0 = ask 0 slow in
      Thread.delay 0.1;
      let t1 = ask 1 shared in
      Thread.delay 0.1;
      let t2 = ask 2 shared in
      List.iter Thread.join [ t0; t1; t2 ];
      let r i = match results.(i) with Some r -> r | None -> Alcotest.fail "no response" in
      List.iter (fun i -> ignore (expect_done (r i))) [ 0; 1; 2 ];
      check_bool "follower has its own id" true
        ((r 1).Protocol.id <> (r 2).Protocol.id);
      check_str "identical payload for primary and follower"
        (Json.to_string (r 1).Protocol.result)
        (Json.to_string (r 2).Protocol.result);
      check_bool "the daemon counted a coalesced request" true
        (Metrics.counter (Server.metrics t) "serve/coalesced" >= 1))

(* Two worker domains, two connections sending at once: jobs really run
   in parallel, yet every payload (less its cache counters and wall
   time) equals an in-process Session.execute of the same request. The
   degree-one n=5 sweep goes out from both connections under one key
   (coalesced or queued) and under a second key that differs only in
   its jobs option, so two workers want the same acceptance tables at
   the same moment and one of them builds a private table. *)
let test_parallel_workers_deterministic () =
  let check decoder graph = job (Protocol.Check { decoder; graph }) in
  let sweep_jobs1 =
    sweep_req ~opts:{ Protocol.default_opts with Protocol.jobs = Some 1 }
      "degree-one" 5
  in
  let conn_a =
    [
      sweep_req "degree-one" 5; check "degree-one" "cycle:5";
      sweep_req "edge-bit" 5; check "union" "complete:4";
      sweep_req "hidden-leaf2" 5; check "edge-bit" "cycle:7";
      sweep_jobs1;
    ]
  in
  let conn_b =
    [
      sweep_jobs1; check "hidden-leaf3" "cycle:5"; sweep_req "degree-one" 5;
      check "degree-one" "cycle:5"; sweep_req "trivial2" 5;
      check "even-cycle" "cycle:5"; sweep_req "hidden-leaf2" 5;
    ]
  in
  let strip = function
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "cache" && k <> "wall_ms") fields)
    | j -> j
  in
  let expected =
    let session = Session.create () in
    List.map
      (fun req ->
        let cfg = Session.cfg_of_request session req ~emit:ignore in
        match Session.execute session req cfg with
        | Protocol.Done, _, payload -> Json.to_string (strip payload)
        | _, reason, _ ->
            Alcotest.fail
              ("in-process run failed: " ^ Option.value reason ~default:"-"))
  in
  let want_a = expected conn_a and want_b = expected conn_b in
  with_server ~workers:2 (fun socket t ->
      (* Sync.join re-raises a failed check from the client thread *)
      let drive reqs =
        let got = ref [] in
        let h =
          Lcp_obs.Sync.spawn "test/serve/client" (fun () ->
              got :=
                Client.with_connection socket (fun c ->
                    List.map
                      (fun req -> Json.to_string (strip (expect_done (request_exn c req))))
                      reqs))
        in
        fun () ->
          Lcp_obs.Sync.join h;
          !got
      in
      let join_a = drive conn_a in
      let join_b = drive conn_b in
      List.iter
        (fun (name, want, got) ->
          List.iteri
            (fun i (want, got) ->
              check_str (Printf.sprintf "connection %s, request %d = in-process" name i)
                want got)
            (List.combine want got))
        [ ("a", want_a, join_a ()); ("b", want_b, join_b ()) ];
      let m = Server.metrics t in
      check_int "every request answered once"
        (List.length conn_a + List.length conn_b)
        (Metrics.counter m "serve/requests");
      check_bool "queue drained" true (Metrics.gauge m "serve/queue_depth" = Some 0))

let test_interim_events () =
  with_server (fun socket _t ->
      Client.with_connection socket (fun c ->
          let events = ref [] in
          let opts = { Protocol.default_opts with Protocol.progress = true } in
          let result =
            expect_done
              (request_exn
                 ~on_event:(fun e -> events := e :: !events)
                 c
                 (sweep_req ~opts "degree-one" 4))
          in
          check_bool "job still answers" true (get_bool result [ "ok" ]);
          check_bool "events streamed before the response" true
            (List.length !events > 0);
          check_bool "the serve span is among them" true
            (List.exists
               (fun e ->
                 match e.Protocol.body with
                 | Sink.Span_start path | Sink.Span_end (path, _) ->
                     String.length path >= 5 && String.sub path 0 5 = "serve"
                 | Sink.Progress _ -> false)
               !events);
          (* a progress-less request on the same connection stays silent *)
          let quiet = ref 0 in
          ignore
            (expect_done
               (request_exn
                  ~on_event:(fun _ -> incr quiet)
                  c
                  (sweep_req "degree-one" 4)));
          check_int "no events without progress" 0 !quiet))

let test_server_metrics_and_shutdown () =
  let socket_path = fresh_socket () in
  let config = Server.default_config ~socket_path in
  let t = Server.start config in
  let finished = ref false in
  let waiter =
    Thread.create
      (fun () ->
        Server.wait t;
        finished := true)
      ()
  in
  Client.with_connection socket_path (fun c ->
      let m = expect_done (request_exn c (job Protocol.Metrics)) in
      check_bool "serve counters materialized" true
        (get_int m [ "counters"; "serve/requests" ] >= 0);
      check_int "nothing rejected yet" 0
        (get_int m [ "counters"; "serve/rejected" ]);
      let ok = expect_done (request_exn c (job Protocol.Shutdown)) in
      check_bool "shutdown acknowledged" true (get_bool ok [ "ok" ]));
  Thread.join waiter;
  check_bool "wait returned after shutdown request" true !finished;
  check_bool "socket file removed" false (Sys.file_exists socket_path)

let test_server_rejects_worker_count () =
  (* checked before the socket path is touched: no socket file is left
     behind, and a file already at the path is neither stat-ed into a
     Failure nor removed *)
  List.iter
    (fun workers ->
      let rejected config =
        match Server.start config with
        | exception Invalid_argument _ -> true
        | t ->
            Server.stop t;
            Server.wait t;
            false
      in
      let socket_path = fresh_socket () in
      let config = { (Server.default_config ~socket_path) with workers } in
      check_bool
        (Printf.sprintf "workers=%d rejected" workers)
        true (rejected config);
      check_bool "no socket file left behind" false
        (Sys.file_exists socket_path);
      Out_channel.with_open_text socket_path (fun _ -> ());
      check_bool
        (Printf.sprintf "workers=%d rejected before the stat" workers)
        true (rejected config);
      check_bool "existing file untouched" true (Sys.file_exists socket_path);
      Sys.remove socket_path)
    [ 0; -1; Server.max_workers + 1 ]

let suite =
  [
    case "protocol: requests round-trip" test_request_roundtrip;
    case "protocol: responses round-trip" test_response_roundtrip;
    case "protocol: events round-trip" test_event_roundtrip;
    case "protocol: unknown fields tolerated" test_unknown_fields_tolerated;
    case "protocol: schema version checked" test_schema_version_checked;
    case "protocol: coalesce key semantics" test_coalesce_key;
    case "jobq: fifo within a bound" test_jobq_fifo_and_bound;
    case "jobq: zero capacity refuses" test_jobq_zero_capacity;
    case "jobq: close drains then refuses" test_jobq_close;
    case "jobq: pop blocks and wakes" test_jobq_blocking_pop;
    slow_case "server: sweeps match direct runs (all decoders)"
      test_server_matches_direct_sweeps;
    case "server: checks match direct runs" test_server_matches_direct_check;
    case "server: queue-full rejection" test_queue_full_rejection;
    case "server: deadline expiry" test_deadline_expired;
    case "server: bad requests answered" test_bad_requests_get_error_responses;
    case "server: malformed line answered" test_malformed_line_gets_error_response;
    slow_case "server: warm caches, identical counters" test_warm_cache_hits;
    slow_case "server: identical in-flight requests coalesce" test_coalescing;
    case "server: parallel workers match in-process runs"
      test_parallel_workers_deterministic;
    case "server: interim events stream" test_interim_events;
    case "server: metrics and clean shutdown" test_server_metrics_and_shutdown;
    case "server: worker count range-checked" test_server_rejects_worker_count;
    case "protocol: retired run options rejected" test_retired_opts_rejected;
  ]
