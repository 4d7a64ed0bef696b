open Lcp_graph
open Lcp_local
module Json = Lcp_obs.Json
module Metrics = Lcp_obs.Metrics
module Sink = Lcp_obs.Sink
module Run_cfg = Lcp_obs.Run_cfg

(* ------------------------------------------------------------------ *)
(* server-side limits                                                  *)

type limits = {
  max_jobs : int;
  max_n : int;  (** sweep order cap, and the soundness-search cap for [check] *)
  max_lint_n : int;
  max_samples : int;
  max_deadline_ms : int option;
  max_shards : int;
  shard_bin : string;
}

let default_limits =
  {
    max_jobs = Lcp_engine.Pool.default_jobs ();
    max_n = 7;
    max_lint_n = 5;
    max_samples = 64;
    max_deadline_ms = None;
    max_shards = 16;
    shard_bin = Sys.executable_name;
  }

type t = {
  limits : limits;
  version : string;
  metrics : Metrics.t;  (** the server-wide aggregate registry *)
  started_at : float;
}

let create ?(limits = default_limits) ?(version = "dev") () =
  let metrics = Metrics.create () in
  (* materialize the serve counters so a metrics request reports them
     even before any traffic *)
  List.iter
    (fun name -> Metrics.incr metrics ~by:0 name)
    [
      "serve/requests"; "serve/rejected"; "serve/coalesced"; "serve/expired";
      "serve/cache_warm_hits";
    ];
  Metrics.set_gauge metrics "serve/queue_depth" 0;
  { limits; version; metrics; started_at = Lcp_obs.Clock.now_s () }

(* ------------------------------------------------------------------ *)
(* per-request Run_cfg                                                 *)

(* Built at admission time, so queue wait counts against the deadline.
   Client knobs are capped by the server's limits; the sink forwards
   span/progress events to the client when the request asked for them. *)
let cfg_of_request t (req : Protocol.request) ~emit =
  let o = req.Protocol.opts in
  let jobs =
    match o.Protocol.jobs with
    | Some j when j >= 1 -> min j t.limits.max_jobs
    | _ -> 1
  in
  let deadline_ms =
    match (o.Protocol.deadline_ms, t.limits.max_deadline_ms) with
    | None, cap -> cap
    | Some d, None -> Some d
    | Some d, Some cap -> Some (min d cap)
  in
  let sink =
    if o.Protocol.progress then
      { Sink.name = "serve"; emit = (fun _ e -> emit e); flush = ignore }
    else Sink.null
  in
  Run_cfg.make ~jobs
    ~heavy:(Option.value o.Protocol.heavy ~default:false)
    ?seed:o.Protocol.seed
    ~sink
    ?deadline:(Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms)
    ()

(* ------------------------------------------------------------------ *)
(* payload helpers                                                     *)

exception Usage of string

let find_suite key =
  match Lcp.Registry.find key with
  | Some e -> e
  | None ->
      raise
        (Usage
           (Printf.sprintf "unknown decoder %S; available: %s" key
              (String.concat " " Lcp.Registry.keys)))

let parse_graph spec =
  match Builders.of_spec spec with
  | Ok g -> g
  | Error msg -> raise (Usage msg)

(* The deterministic work counters a client may diff against a direct
   one-shot run: independent of jobs AND of cache temperature. The
   temperature-dependent cache counters are reported separately. *)
let work_counter_names =
  [
    "labelings_checked"; "orbit_pruned_branches"; "candidates_generated";
    "connected"; "classes"; "dedup_hits"; "kept"; "checked"; "passed";
    "violations";
  ]

let cache_counter_names =
  [
    "cache_hits"; "cache_misses"; "eval_cache_hits"; "eval_cache_misses";
    "eval_cache_shared_hits";
  ]

let counters_json m names =
  Json.Obj (List.map (fun name -> (name, Json.Int (Metrics.counter m name))) names)

let graph_json g =
  Json.Obj
    [
      ("n", Json.Int (Graph.order g));
      ( "edges",
        Json.List
          (List.map
             (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ])
             (Graph.edges g)) );
    ]

let labeling_json lab =
  Json.List (Array.to_list (Array.map (fun s -> Json.String s) lab))

(* ------------------------------------------------------------------ *)
(* the job bodies                                                      *)

let run_check t cfg ~decoder ~graph =
  let suite = (find_suite decoder).Lcp.Registry.suite in
  let g = parse_graph graph in
  let inst = Instance.make g in
  let bipartite = Coloring.is_bipartite g in
  let promise = suite.Lcp.Decoder.promise g in
  let honest =
    match Lcp.Decoder.certify suite inst with
    | None -> Json.Null
    | Some certified ->
        Json.Obj
          [
            ( "unanimous",
              Json.Bool (Lcp.Decoder.accepts_all suite.Lcp.Decoder.dec certified)
            );
            ("cert_bits", Json.Int (Labeling.max_bits certified.Instance.labels));
            ("cert_bits_bound", Json.Int (suite.Lcp.Decoder.cert_bits inst));
          ]
  in
  let soundness, sound_ok =
    if bipartite then (Json.Null, true)
    else if Graph.order g > t.limits.max_n then
      ( Json.Obj [ ("skipped", Json.String "graph above server max_n") ],
        true )
    else begin
      let verdict =
        Lcp.Checker.soundness_exhaustive ~cfg suite [ inst ]
      in
      let ok = Lcp.Checker.is_pass verdict in
      ( Json.Obj
          [
            ("ok", Json.Bool ok);
            ( "labelings_checked",
              Json.Int (Metrics.counter cfg.Run_cfg.metrics "labelings_checked")
            );
          ],
        ok )
    end
  in
  let honest_ok =
    match honest with
    | Json.Null -> not (promise && bipartite)
    | Json.Obj fields -> List.assoc "unanimous" fields = Json.Bool true
    | _ -> false
  in
  let ok = honest_ok && sound_ok in
  Json.Obj
    [
      ("ok", Json.Bool ok);
      ("decoder", Json.String decoder);
      ("graph", Json.String graph);
      ("graph_info", graph_json g);
      ("bipartite", Json.Bool bipartite);
      ("promise", Json.Bool promise);
      ("honest", honest);
      ("soundness", soundness);
      ("counters", counters_json cfg.Run_cfg.metrics work_counter_names);
      ("cache", counters_json cfg.Run_cfg.metrics cache_counter_names);
    ]

let run_prove _t _cfg ~decoder ~graph =
  let suite = (find_suite decoder).Lcp.Registry.suite in
  let g = parse_graph graph in
  let inst = Instance.make g in
  match Lcp.Decoder.certify suite inst with
  | None ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("decoder", Json.String decoder);
          ("graph", Json.String graph);
          ("produced", Json.Bool false);
          ("reason", Json.String "outside the promise class (or not 2-colorable)");
        ]
  | Some certified ->
      Json.Obj
        [
          ("ok", Json.Bool (Lcp.Decoder.accepts_all suite.Lcp.Decoder.dec certified));
          ("decoder", Json.String decoder);
          ("graph", Json.String graph);
          ("produced", Json.Bool true);
          ("labels", labeling_json certified.Instance.labels);
          ("cert_bits", Json.Int (Labeling.max_bits certified.Instance.labels));
        ]

let sweep_strategy name =
  match Lcp_engine.Sweep.strategy_of_string name with
  | Some s -> s
  | None ->
      raise
        (Usage
           (Printf.sprintf "unknown strategy %S (expected orderly or mask-scan)"
              name))

let check_sweep_bounds t ~n =
  if n < 1 || n > t.limits.max_n then
    raise
      (Usage (Printf.sprintf "sweep n must be in 1..%d (got %d)" t.limits.max_n n))

let run_sweep_unsharded t cfg ~decoder ~n ~strategy ~early_exit =
  let suite = (find_suite decoder).Lcp.Registry.suite in
  let strategy = sweep_strategy strategy in
  check_sweep_bounds t ~n;
  let summary =
    Lcp.Checker.soundness_sweep ~cfg ~strategy ~early_exit suite ~n
  in
  let verdict = Lcp.Checker.verdict_of_sweep summary in
  let ok = Lcp.Checker.is_pass verdict in
  let c = summary.Lcp_engine.Sweep.counters in
  Json.Obj
    [
      ("ok", Json.Bool ok);
      ("decoder", Json.String decoder);
      ("n", Json.Int n);
      ("strategy", Json.String (Lcp_engine.Sweep.strategy_name strategy));
      ("early_exit", Json.Bool early_exit);
      ("jobs", Json.Int cfg.Run_cfg.jobs);
      ("verdict", Json.String (if ok then "pass" else "fail"));
      ( "counterexample",
        match summary.Lcp_engine.Sweep.counterexample with
        | None -> Json.Null
        | Some (g, inst) ->
            Json.Obj
              [
                ("graph", graph_json g);
                ("labels", labeling_json inst.Instance.labels);
              ] );
      ( "summary_counters",
        Json.Obj
          [
            ("candidates", Json.Int c.Lcp_engine.Sweep.candidates);
            ("connected", Json.Int c.Lcp_engine.Sweep.connected);
            ("classes", Json.Int c.Lcp_engine.Sweep.classes);
            ("dedup_hits", Json.Int c.Lcp_engine.Sweep.dedup_hits);
            ("kept", Json.Int c.Lcp_engine.Sweep.kept);
            ("checked", Json.Int c.Lcp_engine.Sweep.checked);
            ("passed", Json.Int c.Lcp_engine.Sweep.passed);
            ("violations", Json.Int c.Lcp_engine.Sweep.violations);
          ] );
      ("counters", counters_json cfg.Run_cfg.metrics work_counter_names);
      ("cache", counters_json cfg.Run_cfg.metrics cache_counter_names);
      ( "wall_ms",
        Json.Int (int_of_float (summary.Lcp_engine.Sweep.wall_s *. 1000.)) );
    ]

(* A fresh private checkpoint directory per coordinated job: the
   server may run several coordinated sweeps concurrently and their
   shard files must not collide. *)
let fresh_coord_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base (Printf.sprintf "lcp-coord-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let remove_coord_dir dir =
  (match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* The coordinated variant: partition into [shards] workers, fork one
   [shard_bin sweep --shard I/K] child per shard, supervise, merge.
   The response carries the merged report (the bytes the CI gate cmp's
   against the unsharded run) plus the coordinator's own tallies. *)
let run_sweep_coordinated t cfg ~decoder ~n ~strategy ~early_exit ~shards =
  if early_exit then
    raise (Usage "coordinated sweeps are exhaustive; drop early_exit");
  if shards < 2 || shards > t.limits.max_shards then
    raise
      (Usage
         (Printf.sprintf "shards must be in 2..%d (got %d)" t.limits.max_shards
            shards));
  check_sweep_bounds t ~n;
  ignore (find_suite decoder);
  let strategy = sweep_strategy strategy in
  let dir = fresh_coord_dir () in
  Fun.protect
    ~finally:(fun () -> remove_coord_dir dir)
    (fun () ->
      let config =
        {
          (Coordinator.default_config ~decoder ~n ~shards ~dir) with
          Coordinator.strategy;
          jobs = cfg.Run_cfg.jobs;
          executor = Coordinator.Subprocess { bin = t.limits.shard_bin };
        }
      in
      match Coordinator.run ~cfg config with
      | Error msg -> failwith msg
      | Ok o ->
          let merged = o.Coordinator.merged in
          Json.Obj
            [
              ( "ok",
                Json.Bool (merged.Lcp_engine.Checkpoint.violations = 0) );
              ("decoder", Json.String decoder);
              ("n", Json.Int n);
              ( "strategy",
                Json.String (Lcp_engine.Sweep.strategy_name strategy) );
              ("shards", Json.Int shards);
              ("jobs", Json.Int cfg.Run_cfg.jobs);
              ( "verdict",
                Json.String
                  (if merged.Lcp_engine.Checkpoint.violations = 0 then "pass"
                   else "fail") );
              ("report", o.Coordinator.report);
              ("coordinator", Coordinator.outcome_json o);
              ("counters", counters_json cfg.Run_cfg.metrics work_counter_names);
              ("cache", counters_json cfg.Run_cfg.metrics cache_counter_names);
            ])

let run_sweep t cfg ~decoder ~n ~strategy ~early_exit ~shards =
  if shards = 1 then run_sweep_unsharded t cfg ~decoder ~n ~strategy ~early_exit
  else run_sweep_coordinated t cfg ~decoder ~n ~strategy ~early_exit ~shards

(* One slice of someone else's sharded sweep, run to completion
   in-process: the remote half of the coordinator's [Remote] executor.
   The complete checkpoint rides back inside the payload — merging
   happens wherever the coordinator lives. *)
let run_sweep_shard t cfg ~decoder ~n ~strategy ~shards ~shard =
  let suite = (find_suite decoder).Lcp.Registry.suite in
  let strategy = sweep_strategy strategy in
  check_sweep_bounds t ~n;
  if shards < 1 || shards > t.limits.max_shards then
    raise
      (Usage
         (Printf.sprintf "shards must be in 1..%d (got %d)" t.limits.max_shards
            shards));
  if shard < 0 || shard >= shards then
    raise
      (Usage (Printf.sprintf "shard must be in 0..%d (got %d)" (shards - 1) shard));
  let path = Filename.temp_file "lcp-sweep-shard" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let checkpoint = { Lcp_engine.Checkpoint.path; resume = false; tag = decoder } in
      let summary =
        Lcp.Checker.soundness_sweep ~cfg ~strategy ~shard:(shard, shards)
          ~checkpoint
          ~on_chunk:(fun ~completed ~total ->
            Run_cfg.progress cfg
              (Printf.sprintf "shard %d/%d: %d/%d classes" shard shards
                 completed total))
          suite ~n
      in
      let ck =
        match Lcp_engine.Checkpoint.load path with
        | Ok ck -> ck
        | Error msg -> failwith ("sweep-shard checkpoint: " ^ msg)
      in
      let ok = Lcp.Checker.is_pass (Lcp.Checker.verdict_of_sweep summary) in
      Json.Obj
        [
          ("ok", Json.Bool ok);
          ("decoder", Json.String decoder);
          ("n", Json.Int n);
          ("strategy", Json.String (Lcp_engine.Sweep.strategy_name strategy));
          ("shards", Json.Int shards);
          ("shard", Json.Int shard);
          ("jobs", Json.Int cfg.Run_cfg.jobs);
          ("checkpoint", Lcp_engine.Checkpoint.to_json ck);
          ("counters", counters_json cfg.Run_cfg.metrics work_counter_names);
          ("cache", counters_json cfg.Run_cfg.metrics cache_counter_names);
          ( "wall_ms",
            Json.Int (int_of_float (summary.Lcp_engine.Sweep.wall_s *. 1000.)) );
        ])

let run_lint t cfg ~decoders ~max_n ~samples =
  let entries =
    match decoders with
    | [] -> Lcp.Registry.all
    | keys -> List.map find_suite keys
  in
  let max_n =
    match max_n with
    | None -> min Lcp_analysis.Corpus.default_max_n t.limits.max_lint_n
    | Some m ->
        if m < 1 || m > t.limits.max_lint_n then
          raise
            (Usage
               (Printf.sprintf "lint max_n must be in 1..%d (got %d)"
                  t.limits.max_lint_n m))
        else m
  in
  let samples =
    match samples with
    | None -> min Lcp_analysis.Corpus.default_samples t.limits.max_samples
    | Some s ->
        if s < 0 || s > t.limits.max_samples then
          raise
            (Usage
               (Printf.sprintf "lint samples must be in 0..%d (got %d)"
                  t.limits.max_samples s))
        else s
  in
  let report = Lcp_analysis.Lint.run ~cfg ~max_n ~samples entries in
  let violations = Lcp_analysis.Lint.violations report in
  Json.Obj
    [
      ("ok", Json.Bool (violations = []));
      ("violations", Json.Int (List.length violations));
      ("findings", Json.Int (List.length (Lcp_analysis.Lint.findings report)));
      ("report", Lcp_analysis.Lint.report_to_json report);
      ("counters", counters_json cfg.Run_cfg.metrics work_counter_names);
      ("cache", counters_json cfg.Run_cfg.metrics cache_counter_names);
    ]

(* ------------------------------------------------------------------ *)
(* control bodies (no queue, no Run_cfg)                               *)

let ping_payload t =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("pong", Json.Bool true);
      ("version", Json.String t.version);
      ( "uptime_ms",
        Json.Int
          (int_of_float ((Lcp_obs.Clock.now_s () -. t.started_at) *. 1000.)) );
    ]

let metrics_payload t = Metrics.to_json t.metrics

(* ------------------------------------------------------------------ *)
(* execution                                                           *)

(* Fold a finished request's deterministic counters into the
   server-wide registry, and account cache warmth: a request served
   from warm state hit either the cross-sweep class cache or a shared
   acceptance table. *)
let absorb t cfg =
  let m = cfg.Run_cfg.metrics in
  List.iter (fun (name, v) -> Metrics.incr t.metrics ~by:v name) (Metrics.counters m);
  let warm =
    Metrics.counter m "cache_hits" + Metrics.counter m "eval_cache_shared_hits"
  in
  Metrics.incr t.metrics ~by:warm "serve/cache_warm_hits"

(* Run one admitted job under its cfg. Returns (status, reason,
   payload); raises nothing. *)
let execute t (req : Protocol.request) cfg =
  if Run_cfg.expired cfg then
    (Protocol.Expired, Some "deadline expired before the job started", Json.Null)
  else
    match
      Run_cfg.span cfg ("serve/" ^ Protocol.kind_name req.Protocol.kind)
        (fun () ->
          match req.Protocol.kind with
          | Protocol.Check { decoder; graph } -> run_check t cfg ~decoder ~graph
          | Protocol.Prove { decoder; graph } -> run_prove t cfg ~decoder ~graph
          | Protocol.Sweep { decoder; n; strategy; early_exit; shards } ->
              run_sweep t cfg ~decoder ~n ~strategy ~early_exit ~shards
          | Protocol.Sweep_shard { decoder; n; strategy; shards; shard } ->
              run_sweep_shard t cfg ~decoder ~n ~strategy ~shards ~shard
          | Protocol.Lint { decoders; max_n; samples } ->
              run_lint t cfg ~decoders ~max_n ~samples
          | Protocol.Ping | Protocol.Metrics | Protocol.Shutdown ->
              (* control kinds never reach the queue *)
              assert false)
    with
    | payload ->
        absorb t cfg;
        (Protocol.Done, None, payload)
    | exception Usage msg ->
        absorb t cfg;
        (Protocol.Failed, Some ("usage: " ^ msg), Json.Null)
    | exception e ->
        absorb t cfg;
        (Protocol.Failed, Some (Printexc.to_string e), Json.Null)
