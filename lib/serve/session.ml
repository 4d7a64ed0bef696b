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

let engine_limits =
  {
    default_limits with
    max_n = Lcp_engine.Canon.max_order;
    max_lint_n = Lcp_engine.Canon.max_order;
    max_samples = max_int;
    max_shards = max_int;
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

let usage fmt = Printf.ksprintf (fun msg -> raise (Usage msg)) fmt

let in_range what ~lo ~hi v =
  if v < lo || v > hi then usage "%s must be in %d..%d (got %d)" what lo hi v

let find_suite key =
  match Lcp.Registry.find key with
  | Some e -> e
  | None ->
      usage "unknown decoder %S; available: %s" key
        (String.concat " " Lcp.Registry.keys)

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

(* The wire's [strategy] member (and the CLI's --strategy) name the
   one enumerator; anything else is refused here, so no layer below
   sees the value. *)
let check_strategy = function
  | "orderly" -> ()
  | s -> usage "unknown strategy %S (orderly is the only enumerator)" s

(* The one sweep body. Unsharded and uncheckpointed it answers a wire
   [sweep]; with [shard] and a [checkpoint] it runs the CLI's
   [--shard]/[--checkpoint]/[--resume]/[--max-chunks] (the
   coordinator's shard workers). A checkpoint that cannot be
   resumed is a usage error, so such a worker exits 2 and the
   coordinator aborts instead of restarting it; any later failure of
   the sweep stays a runtime failure. *)
let run_sweep ?shard ?checkpoint ?max_chunks t cfg ~decoder ~n ~early_exit =
  let suite = (find_suite decoder).Lcp.Registry.suite in
  in_range "sweep n" ~lo:1 ~hi:t.limits.max_n n;
  if early_exit && checkpoint <> None then
    usage "checkpointed sweeps are exhaustive; drop early_exit";
  if max_chunks <> None && checkpoint = None then usage "max_chunks needs a checkpoint";
  let shard_ix, shards = match shard with Some (i, k) -> (i, k) | None -> (0, 1) in
  let on_chunk ~completed ~total =
    Run_cfg.progress cfg
      (Printf.sprintf "shard %d/%d: %d/%d classes" shard_ix shards completed
         total)
  in
  let summary =
    try
      Lcp.Checker.soundness_sweep ~cfg ?shard ?checkpoint ~on_chunk ?max_chunks
        ~early_exit suite ~n
    with Lcp_engine.Sweep.Checkpoint_mismatch msg -> raise (Usage msg)
  in
  let ok = Lcp.Checker.is_pass (Lcp.Checker.verdict_of_sweep summary) in
  let c = summary.Lcp_engine.Sweep.counters in
  Json.Obj
    ([
       ("ok", Json.Bool ok);
       ("decoder", Json.String decoder);
       ("n", Json.Int n);
     ]
    @ (if shard = None then []
       else [ ("shards", Json.Int shards); ("shard", Json.Int shard_ix) ])
    @ [
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
      ]
    @ [
        ("counters", counters_json cfg.Run_cfg.metrics work_counter_names);
        ("cache", counters_json cfg.Run_cfg.metrics cache_counter_names);
        ( "wall_ms",
          Json.Int (int_of_float (summary.Lcp_engine.Sweep.wall_s *. 1000.)) );
      ])

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

(* The one coordinated body: supervise the shard workers [config]
   describes and merge them. The response carries the merged report
   (the bytes the CI gate cmp's against the unsharded run) plus the
   coordinator's own tallies. *)
let run_coordinated cfg (config : Coordinator.config) =
  match Coordinator.run ~cfg config with
  | Error msg -> failwith msg
  | Ok o ->
      let ok = o.Coordinator.merged.Lcp_engine.Checkpoint.violations = 0 in
      Json.Obj
        [
          ("ok", Json.Bool ok);
          ("decoder", Json.String config.Coordinator.decoder);
          ("n", Json.Int config.Coordinator.n);
          ("shards", Json.Int config.Coordinator.shards);
          ("jobs", Json.Int config.Coordinator.jobs);
          ("verdict", Json.String (if ok then "pass" else "fail"));
          ("report", o.Coordinator.report);
          ("coordinator", Coordinator.outcome_json o);
          ("counters", counters_json cfg.Run_cfg.metrics work_counter_names);
          ("cache", counters_json cfg.Run_cfg.metrics cache_counter_names);
        ]

type coordination = {
  workers : int;
  jobs : int;
  dir : string option;
  stall_s : float option;
  max_restarts : int option;
  inject_kill : int option;
}

(* A coordinated [sweep]: K shard workers forked from [shard_bin], each
   on the request's pool width, over a private checkpoint directory
   removed afterwards; [local] is an in-process caller's own workers,
   directory and supervision knobs. A caller's private
   directory outlives a failed run, so it can be resumed from. *)
let run_sweep_coordinated ?local t cfg ~decoder ~n ~early_exit ~shards =
  if early_exit then usage "coordinated sweeps are exhaustive; drop early_exit";
  (* one coordinated shard is an in-process caller's choice; a daemon
     answers shards = 1 in-process *)
  in_range "shards" ~lo:(if local = None then 2 else 1) ~hi:t.limits.max_shards shards;
  in_range "sweep n" ~lo:1 ~hi:t.limits.max_n n;
  ignore (find_suite decoder);
  let config dir =
    {
      (Coordinator.default_config ~decoder ~n ~shards ~dir) with
      Coordinator.jobs = cfg.Run_cfg.jobs;
      executor = Coordinator.Subprocess { bin = t.limits.shard_bin };
    }
  in
  match local with
  | None ->
      let dir = fresh_coord_dir () in
      Fun.protect
        ~finally:(fun () -> remove_coord_dir dir)
        (fun () -> run_coordinated cfg (config dir))
  | Some l -> (
      Option.iter (in_range "inject_kill" ~lo:0 ~hi:(shards - 1)) l.inject_kill;
      let dir = match l.dir with Some d -> d | None -> fresh_coord_dir () in
      let c = config dir in
      match
        run_coordinated cfg
          {
            c with
            Coordinator.workers = l.workers;
            jobs = l.jobs;
            stall_s = Option.value l.stall_s ~default:c.Coordinator.stall_s;
            max_restarts =
              Option.value l.max_restarts ~default:c.Coordinator.max_restarts;
            inject_kill = l.inject_kill;
          }
      with
      | payload ->
          if l.dir = None then remove_coord_dir dir;
          payload
      | exception Failure msg when l.dir = None ->
          Printf.ksprintf failwith
            "%s (shard checkpoints kept in %s; rerun with --checkpoint-dir %s \
             to resume)"
            msg dir dir)

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
        in_range "lint max_n" ~lo:1 ~hi:t.limits.max_lint_n m;
        m
  in
  let samples =
    match samples with
    | None -> min Lcp_analysis.Corpus.default_samples t.limits.max_samples
    | Some s ->
        in_range "lint samples" ~lo:0 ~hi:t.limits.max_samples s;
        s
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

type placement =
  | Slice of {
      shard : int;
      checkpoint : Lcp_engine.Checkpoint.policy option;
      max_chunks : int option;
    }
  | Coordinate of coordination

let sweep ?placement t cfg ~decoder ~n ~early_exit ~shards =
  match placement with
  | Some (Slice { shard; checkpoint; max_chunks }) ->
      in_range "shards" ~lo:1 ~hi:t.limits.max_shards shards;
      in_range "shard" ~lo:0 ~hi:(shards - 1) shard;
      let shard = if shards = 1 then None else Some (shard, shards) in
      run_sweep ?shard ?checkpoint ?max_chunks t cfg ~decoder ~n ~early_exit
  | None when shards = 1 -> run_sweep t cfg ~decoder ~n ~early_exit
  | None -> run_sweep_coordinated t cfg ~decoder ~n ~early_exit ~shards
  | Some (Coordinate local) ->
      run_sweep_coordinated ~local t cfg ~decoder ~n ~early_exit ~shards

(* Run one admitted job under its cfg. Returns (status, reason,
   payload); raises nothing. *)
let execute ?placement t (req : Protocol.request) cfg =
  if Run_cfg.expired cfg then
    (Protocol.Expired, Some "deadline expired before the job started", Json.Null)
  else
    match
      match req.Protocol.kind with
      | Protocol.Check { decoder; graph } -> run_check t cfg ~decoder ~graph
      | Protocol.Prove { decoder; graph } -> run_prove t cfg ~decoder ~graph
      | Protocol.Sweep { decoder; n; strategy; early_exit; shards } ->
          check_strategy strategy;
          sweep ?placement t cfg ~decoder ~n ~early_exit ~shards
      | Protocol.Lint { decoders; max_n; samples } ->
          run_lint t cfg ~decoders ~max_n ~samples
      | Protocol.Ping | Protocol.Metrics | Protocol.Shutdown ->
          (* control kinds never reach the queue *)
          assert false
    with
    | payload ->
        absorb t cfg;
        (Protocol.Done, None, payload)
    | exception (Usage msg | Lcp_engine.Listing.Mismatch msg) ->
        absorb t cfg;
        (Protocol.Failed, Some ("usage: " ^ msg), Json.Null)
    | exception e ->
        absorb t cfg;
        (Protocol.Failed, Some (Printexc.to_string e), Json.Null)
