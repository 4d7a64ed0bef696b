(* The lcp command-line front-end: run experiments, check LCP
   properties, survey forgetfulness, export neighborhood graphs. *)

open Lcp_graph
open Lcp_local
open Lcp
module Json = Lcp_obs.Json
module Run_cfg = Lcp_obs.Run_cfg
module Protocol = Lcp_serve.Protocol
module Session = Lcp_serve.Session
module Coordinator = Lcp_serve.Coordinator

(* Decoder keys and graph specs resolve exactly as a daemon resolves
   them; a bad one raises [Session.Usage], which exits 2. *)
let parse_graph = Session.parse_graph
let parse_suite name = (Session.find_suite name).Registry.suite

(* ------------------------------------------------------------------ *)
(* subcommand bodies                                                   *)

(* Each engine-backed subcommand builds exactly ONE [Run_cfg.t] from its
   flags, right here, and every layer below reads that record —
   parallelism, seed, sink — instead of taking its own [?jobs] /
   [?heavy] optionals. [jobs = 0] (the flag default) is normalized by
   [Run_cfg.make] to the recommended domain count. *)
let build_cfg ~jobs ~seed ~progress ~metrics_out =
  let sink = Lcp_obs.Sink.of_outputs ~progress ?metrics_out () in
  Run_cfg.make ~jobs ?seed ~sink ()

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

(* A JSON file ends with one newline, as the same JSON on stdout does. *)
let write_json path json = write_file path (Json.to_string_pretty json ^ "\n")

let run_experiments heavy markdown json cfg =
  let cfg = { cfg with Run_cfg.heavy } in
  let reports = Experiments.run_all ~cfg () in
  Report.pp_all Format.std_formatter reports;
  (match markdown with
  | None -> ()
  | Some path ->
      write_file path
        (String.concat ""
           (Printf.sprintf
              "# EXPERIMENTS — measured vs paper\n\nGenerated by `lcp \
               experiments%s`. See DESIGN.md for the experiment index.\n\n"
              (if heavy then " --heavy" else "")
           :: List.map (fun r -> Report.to_markdown r ^ "\n") reports));
      Format.printf "markdown written to %s@." path);
  (match json with
  | None -> ()
  | Some path ->
      write_json path (Report.battery_to_json reports);
      Format.printf "json written to %s@." path);
  Run_cfg.flush cfg;
  if List.for_all Report.passed reports then 0 else 1

let run_check decoder_name graph_spec trials seed =
  let suite = parse_suite decoder_name in
  let g = parse_graph graph_spec in
  let inst = Instance.make g in
  let rng = Run_cfg.rng (Run_cfg.make ?seed ()) in
  let ok = ref true in
  Format.printf "decoder %s on %s (n=%d, bipartite=%b, in promise class=%b)@."
    decoder_name graph_spec (Graph.order g)
    (Coloring.is_bipartite g)
    (suite.Decoder.promise g);
  (match Decoder.certify suite inst with
  | Some certified ->
      let unanimous = Decoder.accepts_all suite.Decoder.dec certified in
      if not unanimous then ok := false;
      Format.printf "honest prover: certificates produced; unanimous accept=%b@."
        unanimous;
      Format.printf "largest certificate: %d bits (theory: %d bits)@."
        (Labeling.max_bits certified.Instance.labels)
        (suite.Decoder.cert_bits inst)
  | None ->
      if suite.Decoder.promise g && Coloring.is_bipartite g then ok := false;
      Format.printf "honest prover: no certificate (outside promise class?)@.");
  let strong =
    Checker.strong_soundness_random suite ~k:2 ~trials rng [ inst ]
  in
  if not (Checker.is_pass strong) then ok := false;
  Format.printf "strong soundness (randomized, %d trials): %a@." trials
    Checker.pp_verdict strong;
  if Graph.order g <= 4 then begin
    let exh = Checker.strong_soundness_exhaustive suite ~k:2 [ inst ] in
    if not (Checker.is_pass exh) then ok := false;
    Format.printf "strong soundness (exhaustive): %a@." Checker.pp_verdict exh
  end;
  if not (Coloring.is_bipartite g) then begin
    let alphabet = suite.Decoder.adversary_alphabet inst in
    match Prover.find_accepted suite.Decoder.dec ~alphabet inst with
    | None -> Format.printf "soundness: no certificate assignment is accepted@."
    | Some _ ->
        ok := false;
        Format.printf "soundness VIOLATED: accepted labeling found@."
  end;
  if !ok then 0 else 1

(* Sampled certification on one large seeded random instance: the
   10^5..10^6-node regime the exhaustive sweep cannot reach. The whole
   phase structure lives in [Lcp.Sampling]; this body only builds the
   graph, times the build, prints the summary and writes the report. *)
let run_sample decoder_name model nodes eval_nodes trials pairs json deadline_ms
    cfg =
  let suite = parse_suite decoder_name in
  let deadline = Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms in
  let cfg = { cfg with Run_cfg.deadline } in
  let t_build = Lcp_obs.Clock.now_ns () in
  let g =
    match Random_graphs.of_model (Run_cfg.rng cfg) ~nodes model with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let build_wall_ns = Lcp_obs.Clock.now_ns () - t_build in
  Format.printf "sample: %s on %s (n=%d, m=%d, seed=%d, built in %.2fs)@."
    decoder_name model (Graph.order g) (Graph.size g) cfg.Run_cfg.seed
    (float_of_int build_wall_ns /. 1e9);
  let report =
    Sampling.with_build_wall_ns
      (Sampling.run ~eval_nodes ~trials ~pairs ~cfg ~decoder:decoder_name
         ~model suite g)
      build_wall_ns
  in
  (match report.Sampling.completeness with
  | Some c ->
      Format.printf
        "completeness: %d/%d sampled nodes accept on the %s (n=%d) in %.2fs@."
        c.Sampling.accepted c.Sampling.evaluated c.Sampling.instance
        c.Sampling.c_nodes
        (float_of_int c.Sampling.c_wall_ns /. 1e9)
  | None -> Format.printf "completeness: skipped (deadline or no yes-instance)@.");
  (match report.Sampling.soundness with
  | Some s when s.Sampling.applicable ->
      Format.printf
        "soundness: %d/%d adversarial labelings rejected (%d probes) in %.2fs@."
        s.Sampling.rejected_trials s.Sampling.trials s.Sampling.probes
        (float_of_int s.Sampling.s_wall_ns /. 1e9)
  | Some _ ->
      Format.printf "soundness: not applicable (model graph is a yes-instance)@."
  | None -> Format.printf "soundness: skipped (deadline)@.");
  (match report.Sampling.hiding with
  | Some h ->
      Format.printf
        "hiding probe: %d pairs, %d structural collisions, %d certified@."
        h.Sampling.pairs h.Sampling.structural_collisions
        h.Sampling.certified_collisions
  | None -> Format.printf "hiding probe: skipped (deadline)@.");
  (match json with
  | None -> ()
  | Some path ->
      write_json path (Sampling.report_to_json report);
      Format.printf "json written to %s@." path);
  Run_cfg.flush cfg;
  if report.Sampling.violations = 0 then begin
    Format.printf "PASS@.";
    0
  end
  else begin
    Format.printf "FAIL: %d violation(s)@." report.Sampling.violations;
    1
  end

let run_viewgraph decoder_name graph_specs out =
  let suite = parse_suite decoder_name in
  let instances =
    List.filter_map
      (fun spec -> Decoder.certify suite (Instance.make (parse_graph spec)))
      graph_specs
  in
  let nbhd = Neighborhood.build suite.Decoder.dec instances in
  Format.printf "%a@." Neighborhood.pp_summary nbhd;
  (match Neighborhood.odd_cycle nbhd with
  | Some c -> Format.printf "odd cycle of %d views => hiding witness@." (List.length c)
  | None -> Format.printf "no odd cycle in this family@.");
  (match out with
  | None -> ()
  | Some path ->
      write_file path (Neighborhood.to_dot nbhd);
      Format.printf "dot written to %s@." path);
  0

let run_export decoder_name graph_spec out =
  let suite = parse_suite decoder_name in
  let g = parse_graph graph_spec in
  let inst = Instance.make g in
  (match Decoder.certify suite inst with
  | Some certified ->
      let json = Codec.verdicts_to_json suite.Decoder.dec certified in
      (match out with
      | Some path ->
          Codec.save path json;
          Format.printf "wrote %s@." path
      | None -> print_endline (Json.to_string_pretty json));
      0
  | None ->
      Format.printf "honest prover failed (outside promise class?)@.";
      1)

(* Regenerate the paper's figure artifacts as DOT files. *)
let run_figures dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name content =
    let path = Filename.concat dir name in
    write_file path content;
    Format.printf "wrote %s@." path
  in
  (* Fig. 1: an escape-path witness on a 1-forgetful graph *)
  let theta = Builders.theta 4 4 4 in
  (match Forgetful.escape_path theta ~r:1 ~v:2 ~u:0 with
  | Some p ->
      let on_path v = List.mem v p in
      write "fig1_forgetful.dot"
        (Graph.to_dot theta ~name:"Fig1" ~label:(fun v ->
             if on_path v then Printf.sprintf "%d (escape)" v else string_of_int v))
  | None -> ());
  (* Fig. 2: a radius-1 view of the diamond, with the chord invisible *)
  let diamond = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ] in
  let view = View.extract (Instance.make diamond) ~r:1 0 in
  write "fig2_view.dot" (View.to_dot view);
  (* Figs. 3-4: the degree-one odd cycle in V(D,4) *)
  let d1_family =
    Neighborhood.exhaustive_family D_degree_one.suite
      ~graphs:
        (List.filter
           (fun g -> Coloring.is_bipartite g && Graph.min_degree g = 1)
           (Lcp_engine.Sweep.iso_classes 4 @ Lcp_engine.Sweep.iso_classes 3))
      ~ports:`All ()
  in
  let d1_nbhd = Neighborhood.build D_degree_one.decoder d1_family in
  write "fig4_degree_one_V.dot" (Neighborhood.to_dot d1_nbhd);
  (* Figs. 5-6: the even-cycle neighborhood graph on C6 *)
  let cyc_family =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 6 ]
      ~ports:`All ()
  in
  let cyc_nbhd = Neighborhood.build D_even_cycle.decoder cyc_family in
  write "fig6_even_cycle_V.dot" (Neighborhood.to_dot cyc_nbhd);
  (match Neighborhood.odd_cycle cyc_nbhd with
  | Some c ->
      Format.printf "fig6 odd cycle through views: %s@."
        (String.concat " " (List.map string_of_int c))
  | None -> ());
  (* Fig. 8-style: an edge-expansion walk *)
  let wm = Builders.watermelon [ 6; 6 ] in
  (match Nb_walks.edge_expansion wm ~r:1 ~u:2 ~v:3 with
  | Some w ->
      write "fig8_expansion.dot"
        (Graph.to_dot wm ~name:"Fig8" ~label:(fun v ->
             if List.mem v w then Printf.sprintf "%d*" v else string_of_int v))
  | None -> ());
  0

(* Merge mode: fold per-shard checkpoint files back into the unsharded
   totals and render the canonical report. No sweep runs; the exit code
   is the merged verdict (0 pass, 1 violations) and any validation
   failure is a usage error (2, via [guard]). *)
let run_sweep_merge files out =
  let loaded =
    List.map
      (fun f ->
        match Lcp_engine.Checkpoint.load f with
        | Ok c -> c
        | Error msg -> failwith ("--merge: " ^ msg))
      files
  in
  match Lcp_engine.Checkpoint.merge loaded with
  | Error msg -> failwith msg
  | Ok merged ->
      let report = Lcp_engine.Checkpoint.report_json merged in
      (match out with
      | Some path ->
          write_json path report;
          Format.printf "merged report written to %s@." path
      | None -> print_endline (Json.to_string_pretty report));
      if merged.Lcp_engine.Checkpoint.violations = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* sweep, lint and client: one request, two routes                     *)

(* Exit-code discipline for scripted clients: 0 when the job ran and
   its payload says ok, 2 when the request itself was malformed, 1 for
   everything else (violations, rejections, expiry, dead daemon). *)
let client_exit_code (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Done -> (
      match Json.member "ok" resp.Protocol.result with
      | Ok (Json.Bool false) -> 1
      | _ -> 0)
  | Protocol.Failed
    when Option.fold ~none:false ~some:(String.starts_with ~prefix:"usage:")
           resp.Protocol.reason ->
      2
  | _ -> 1

let print_event ev =
  Format.eprintf "%s@." (Json.to_string (Protocol.event_to_json ev))

type sweep_flags = { n : int; strategy : string; early_exit : bool; shards : int }

let sweep_defaults = { n = 6; strategy = "orderly"; early_exit = false; shards = 1 }

(* The one place a command line becomes a protocol request: [lcp sweep],
   [lcp lint] and [lcp client] all build theirs here from the same flag
   terms, so a local run and a daemon run of one command line ask for
   the same job. [lint] is (max-n, samples); [None] takes the
   executing session's default. *)
let request ?(sweep = sweep_defaults) ?(lint = (None, None)) opts args =
  let sweep decoder =
    let { n; strategy; early_exit; shards } = sweep in
    Protocol.Sweep { decoder; n; strategy; early_exit; shards }
  in
  let kind =
    match args with
    | [ "ping" ] -> Protocol.Ping
    | [ "metrics" ] -> Protocol.Metrics
    | [ "shutdown" ] -> Protocol.Shutdown
    | [ "check"; decoder; graph ] -> Protocol.Check { decoder; graph }
    | [ "prove"; decoder; graph ] -> Protocol.Prove { decoder; graph }
    | [ "sweep" ] -> sweep "degree-one"
    | [ "sweep"; decoder ] -> sweep decoder
    | "lint" :: decoders ->
        Protocol.Lint { decoders; max_n = fst lint; samples = snd lint }
    | _ ->
        failwith
          "expected one of: ping | metrics | shutdown | check DECODER GRAPH | \
           prove DECODER GRAPH | sweep [DECODER] | lint [DECODER...]"
  in
  { Protocol.kind; opts }

let local_session =
  lazy (Session.create ~limits:Session.engine_limits ~version:Version.version ())

(* The in-process route: the daemon's own [Session.execute], under the
   CLI's cfg (so --progress and --metrics-out work as for any run). *)
let execute_local ?placement ?jobs ~metrics_out (req : Protocol.request) =
  let o = req.Protocol.opts in
  let jobs =
    Option.value jobs ~default:(Option.value o.Protocol.jobs ~default:0)
  in
  let cfg =
    build_cfg ~jobs ~seed:o.Protocol.seed ~progress:o.Protocol.progress
      ~metrics_out
  in
  let status, reason, result =
    Session.execute ?placement (Lazy.force local_session) req cfg
  in
  Run_cfg.flush cfg;
  let kind = Protocol.kind_name req.Protocol.kind in
  { Protocol.id = 0; kind; status; reason; result }

(* The socket route: the same request, answered by a daemon. *)
let send socket req =
  Lcp_serve.Client.with_connection socket (fun c ->
      Lcp_serve.Client.request ~on_event:print_event c req)

(* Both routes end here: print the response, write its "report" member
   (the merged sweep report, the lint report) to [save] if asked, and
   turn it into the exit code. *)
let respond ?save = function
  | Error msg ->
      Format.eprintf "lcp: %s@." msg;
      1
  | Ok (resp : Protocol.response) ->
      print_endline (Json.to_string_pretty (Protocol.response_to_json resp));
      (match (save, Json.member "report" resp.Protocol.result) with
      | Some path, Ok report -> write_json path report
      | _ -> ());
      client_exit_code resp

(* --compare: the request at jobs=1 and at the requested width must get
   the same answer, apart from the members that report the width, the
   wall clock and the cache temperature; a divergence exits 1. Each run
   starts from an empty class cache, so both enumerate at their own
   width. *)
let compare_widths ?placement ~metrics_out req =
  let run ?jobs metrics_out =
    Lcp_engine.Sweep.clear_cache ();
    execute_local ?placement ?jobs ~metrics_out req
  in
  let seq = run ~jobs:1 None in
  let par = run metrics_out in
  let compared (r : Protocol.response) =
    let timing (k, _) = List.mem k [ "jobs"; "wall_ms"; "cache" ] in
    ( r.Protocol.status,
      r.Protocol.reason,
      match r.Protocol.result with
      | Json.Obj members -> List.filter (fun m -> not (timing m)) members
      | _ -> [] )
  in
  let code = respond (Ok par) in
  if compared seq = compared par then code
  else begin
    Format.eprintf "lcp sweep: the parallel run diverged from jobs=1@.";
    1
  end

(* lcp sweep: --merge folds files and runs nothing; --coordinator sends
   the request to a daemon; everything else runs it in-process, as one
   slice (the whole space by default, optionally checkpointed) or
   coordinated over --workers shard workers. The request's own
   checks (bounds, shard range, early-exit exclusions) live in
   [Session]; only combinations of local-only flags are checked here. *)
let run_sweep decoder sweep opts compare shard checkpoint_path resume
    merge_files merge_out workers coordinator stall_s max_restarts
    inject_kill max_chunks checkpoint_dir classes metrics_out =
  if merge_files <> [] then run_sweep_merge merge_files merge_out
  else begin
    let usage fmt = Printf.ksprintf failwith fmt in
    let refuse ~unless what flags =
      match List.find_opt fst flags with
      | Some (_, flag) when not unless -> usage "%s excludes %s" what flag
      | _ -> ()
    in
    let coordinated = workers > 0 in
    refuse ~unless:(coordinator = None) "--coordinator"
      [ (coordinated, "--workers") ];
    refuse ~unless:(not (coordinated || coordinator <> None))
      "a coordinated sweep (always exhaustive and whole-space)"
      [
        (compare, "--compare"); (shard <> 0, "--shard");
        (checkpoint_path <> None, "--checkpoint"); (resume, "--resume");
        (max_chunks <> None, "--max-chunks");
      ];
    if resume && checkpoint_path = None then
      usage "--resume needs --checkpoint FILE";
    refuse ~unless:(checkpoint_path = None) "--checkpoint"
      [ (compare, "--compare") ];
    (* --compare clears the class cache, so it would enumerate anyway *)
    refuse ~unless:(classes = None) "--classes"
      [
        (coordinated, "--workers"); (coordinator <> None, "--coordinator");
        (compare, "--compare");
      ];
    Option.iter
      (fun path ->
        match Lcp_engine.Listing.load path with
        | Error msg -> usage "--classes: %s" msg
        | Ok l when l.Lcp_engine.Listing.n <> sweep.n ->
            usage "--classes: %s lists the connected classes on %d nodes, \
                   not on %d"
              path l.n sweep.n
        | Ok l -> Lcp_engine.Sweep.install l)
      classes;
    let sweep =
      if coordinated && sweep.shards = 1 then { sweep with shards = workers }
      else sweep
    in
    let req = request ~sweep opts [ "sweep"; decoder ] in
    match coordinator with
    | Some socket -> respond ?save:merge_out (send socket req)
    | None when coordinated ->
        let workers = min workers sweep.shards in
        (* each worker owns a domain pool; splitting the recommended
           width keeps K workers from oversubscribing the machine *)
        let jobs =
          Option.value opts.Protocol.jobs
            ~default:(max 1 (Lcp_engine.Pool.default_jobs () / workers))
        in
        let placement =
          Session.Coordinate
            {
              workers; jobs; dir = checkpoint_dir; stall_s;
              max_restarts; inject_kill;
            }
        in
        respond ?save:merge_out (Ok (execute_local ~placement ~metrics_out req))
    | None ->
        let placement =
          if
            sweep.shards > 1 || shard <> 0 || checkpoint_path <> None
            || max_chunks <> None
          then
            Some
              (Session.Slice
                 {
                   shard;
                   checkpoint =
                     Option.map
                       (fun path ->
                         { Lcp_engine.Checkpoint.path; resume; tag = decoder })
                       checkpoint_path;
                   max_chunks;
                 })
          else None
        in
        if compare then compare_widths ?placement ~metrics_out req
        else
          respond ?save:merge_out
            (Ok (execute_local ?placement ~metrics_out req))
  end

(* The decoder sanitizer: sweep registry entries through the
   Lcp_analysis passes and gate on violations. Numbers in the report
   (and the JSON file) depend only on (seed, max-n, samples) — never on
   jobs — so CI can diff artifacts across machines. *)
let run_lint decoders lint opts json metrics_out =
  respond ?save:json
    (Ok (execute_local ~metrics_out (request ~lint opts ("lint" :: decoders))))

let run_forgetful graph_spec r =
  let g = parse_graph graph_spec in
  (match Forgetful.check g ~r with
  | Forgetful.Forgetful ws ->
      Format.printf "%s is %d-forgetful (%d escape paths); diam=%d >= %d@."
        graph_spec r (List.length ws) (Metrics.diameter g) ((2 * r) + 1)
  | Forgetful.Not_forgetful { v; u } ->
      Format.printf "%s is NOT %d-forgetful: no escape at %d arriving from %d@."
        graph_spec r v u);
  Format.printf "maximum forgetful radius: %d@." (Forgetful.max_forgetful_radius g);
  0

(* ------------------------------------------------------------------ *)
(* the daemon and its client                                           *)

let run_serve socket capacity workers max_jobs max_n max_deadline_ms
    max_shards =
  let limits =
    {
      Session.default_limits with
      Session.max_jobs =
        (if max_jobs = 0 then Lcp_engine.Pool.default_jobs () else max_jobs);
      max_n;
      max_deadline_ms;
      max_shards;
    }
  in
  let config =
    {
      Lcp_serve.Server.socket_path = socket;
      capacity;
      workers;
      limits;
      version = Version.version;
    }
  in
  let t = Lcp_serve.Server.start config in
  Format.printf "lcp serve: listening on %s (capacity=%d, workers=%d, max-jobs=%d)@."
    socket capacity workers limits.Session.max_jobs;
  (* a polite Ctrl-C shuts the daemon down like a shutdown request *)
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle (fun _ -> Lcp_serve.Server.stop t))
   with Invalid_argument _ -> ());
  Lcp_serve.Server.wait t;
  Format.printf "lcp serve: shut down@.";
  0

let run_client socket batch args sweep lint opts =
  if batch then begin
    (* newline-delimited raw JSON requests on stdin, responses on
       stdout — the CI smoke test's scripting surface *)
    let code = ref 0 in
    Lcp_serve.Client.with_connection socket (fun c ->
        try
          while true do
            let line = input_line stdin in
            if String.trim line <> "" then
              match Json.of_string line with
              | Error msg ->
                  Format.eprintf "lcp client: bad request line: %s@." msg;
                  code := 2
              | Ok json -> (
                  match
                    Lcp_serve.Client.request_json c json ~on_event:(fun j ->
                        Format.eprintf "%s@." (Json.to_string j))
                  with
                  | Error msg ->
                      Format.eprintf "lcp client: %s@." msg;
                      code := 1
                  | Ok resp -> (
                      print_endline (Json.to_string resp);
                      match Protocol.response_of_json resp with
                      | Ok r -> code := max !code (client_exit_code r)
                      | Error _ -> code := 1))
          done
        with End_of_file -> ());
    !code
  end
  else respond (send socket (request ~sweep ~lint opts args))

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)

open Cmdliner

(* Counts: [count 0] takes non-negative integers, [count 1] positive
   ones (for sizes where zero would run nothing), up to [most]. Anything
   else is a usage error. *)
let count ?(most = max_int) least =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= least && v <= most -> Ok v
    | _ ->
        let range =
          if most = max_int then Printf.sprintf ">= %d" least
          else Printf.sprintf "in %d..%d" least most
        in
        Error (`Msg (Printf.sprintf "expected an integer %s, got %S" range s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A duration in seconds: positive and finite. Zero, negative or nan
   would make every check against it fire, or none. *)
let seconds =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0. && Float.is_finite v -> Ok v
    | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "expected a positive, finite number of seconds, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* A [count]-valued option with a default, and one without. *)
let count_arg ?most ?(docv = "N") least default names doc =
  Arg.(value & opt (count ?most least) default & info names ~docv ~doc)

let count_opt ?absent ?(docv = "N") least names doc =
  Arg.(value & opt (some (count least)) None & info names ?absent ~docv ~doc)

(* An optional string-valued option, absent by default. *)
let opt_string ?(docv = "FILE") names doc =
  Arg.(value & opt (some string) None & info names ~docv ~doc)

let jobs_arg =
  count_arg 0 0 [ "j"; "jobs" ]
    "Domain-pool width for the engine-backed searches; 0 (the default) \
     means the recommended domain count, 1 forces the sequential path. \
     Results are independent of $(docv)."

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Root seed for every PRNG the run derives; defaults to the repo-wide \
           experiment seed.")

let metrics_out_arg =
  opt_string [ "metrics-out" ]
    "Write the run's aggregate metrics (spans, counters, gauges) as JSON \
     to $(docv) when the run ends."

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Stream span and progress events to stderr.")

(* The run options every request carries; [lcp client] adds --heavy and
   --deadline-ms. *)
let opts_term =
  Term.(
    const (fun jobs seed progress ->
        {
          Protocol.jobs = (if jobs = 0 then None else Some jobs);
          heavy = None;
          seed;
          deadline_ms = None;
          progress;
        })
    $ jobs_arg $ seed_arg $ progress_arg)

(* The run cfg of [experiments] and [sample], from the flags every
   request carries plus --metrics-out; each command sets its own
   [heavy] or [deadline] on it. *)
let cfg_term =
  Term.(
    const (fun jobs seed progress metrics_out ->
        build_cfg ~jobs ~seed ~progress ~metrics_out)
    $ jobs_arg $ seed_arg $ progress_arg $ metrics_out_arg)

(* The sweep request's flags, shared by [lcp sweep] and [lcp client]. *)
let sweep_flags =
  let n =
    count_arg 1 sweep_defaults.n [ "n" ]
      "Graph order: sweep every connected non-bipartite iso class on \
       exactly $(docv) nodes."
  in
  let strategy =
    Arg.(
      value & opt string sweep_defaults.strategy
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Class enumeration strategy. $(b,orderly) (canonical \
             augmentation, the default) is the only one; any other value \
             is a usage error.")
  in
  let early_exit =
    Arg.(
      value & flag
      & info [ "early-exit" ]
          ~doc:"Stop scanning once a (minimal) counterexample is found.")
  in
  let shards =
    count_arg ~docv:"K" 1 sweep_defaults.shards [ "shards" ]
      "Slice the class stream into $(docv) disjoint shards keyed by a \
       hash of each class's canonical edge mask (jobs-independent). A \
       local $(b,lcp sweep) sweeps only the shard selected by \
       $(b,--shard), and per-shard checkpoints merge back into the \
       unsharded totals with $(b,--merge); with \
       $(b,--workers), $(b,--coordinator) or from \
       $(b,lcp client), K >= 2 runs all K shards as one coordinated \
       job (a daemon caps K by its --max-shards)."
  in
  Term.(
    const (fun n strategy early_exit shards -> { n; strategy; early_exit; shards })
    $ n $ strategy $ early_exit $ shards)

(* The lint request's flags, shared by [lcp lint] and [lcp client]. *)
let lint_flags =
  let max_n =
    count_opt 1 [ "max-n" ]
      ~absent:(string_of_int Lcp_analysis.Corpus.default_max_n)
      "Lint against every connected isomorphism class on up to $(docv) \
       nodes."
  in
  let samples =
    count_opt ~docv:"K" 0 [ "samples" ]
      ~absent:(string_of_int Lcp_analysis.Corpus.default_samples)
      "Adversarial labelings per class, and re-drawings per invariance \
       check."
  in
  Term.(const (fun max_n samples -> (max_n, samples)) $ max_n $ samples)

let experiments_cmd =
  let heavy =
    Arg.(value & flag & info [ "heavy" ] ~doc:"Run the larger exhaustive searches.")
  in
  let markdown = opt_string [ "markdown" ] "Write the reports as markdown." in
  let json =
    opt_string [ "json" ] "Write the reports as schema-versioned JSON."
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the full E1-E20 reproduction battery.")
    Term.(
      const run_experiments $ heavy $ markdown $ json $ cfg_term)

let sweep_cmd =
  let decoder =
    Arg.(
      value & pos 0 string "degree-one"
      & info [] ~docv:"DECODER"
          ~doc:"Decoder suite to sweep (default degree-one).")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:"Run jobs=1 then the requested width and check the verdicts are \
                bit-identical.")
  in
  let shard =
    count_arg ~docv:"I" 0 0 [ "shard" ]
      "Which shard (0-based, < $(b,--shards)) this process sweeps."
  in
  let checkpoint =
    opt_string [ "checkpoint" ]
      "Persist sweep progress to $(docv): counters are written \
       atomically after every execution chunk, so a killed run loses \
       at most one chunk. Exhaustive mode only (not --early-exit)."
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from an existing $(b,--checkpoint) file instead of \
             starting over; the checkpoint's header and class stream are \
             validated against this run first.")
  in
  let merge =
    Arg.(
      value & opt_all string []
      & info [ "merge" ] ~docv:"FILE"
          ~doc:
            "Merge mode (repeatable): fold the given completed shard \
             checkpoints into unsharded totals and print (or $(b,--merge-out) \
             write) the canonical report. Needs every shard exactly once; no \
             sweep runs. Merging one unsharded checkpoint renders the \
             identical report, so the two paths can be compared byte for \
             byte. An incomplete shard checkpoint is a usage error (exit 2) \
             naming the shard, its progress (classes done, next chunk) and \
             its last checkpoint timestamp — resume that shard with \
             $(b,--resume) and merge again.")
  in
  let merge_out =
    opt_string [ "merge-out" ]
      "Write the merged report to $(docv) instead of stdout (also the \
       coordinated mode's merged report)."
  in
  let workers =
    count_arg ~docv:"W" 0 0 [ "workers" ]
      "Coordinated mode: fork and supervise $(docv) checkpointed \
       $(b,lcp sweep --shard) workers on this host (crashed or stalled \
       workers are restarted from their last completed chunk with \
       capped backoff) and merge their shards into the canonical \
       report. $(b,--shards) defaults to $(docv) when unset. See also \
       $(b,--checkpoint-dir), $(b,--stall-s), $(b,--coordinator)."
  in
  let coordinator =
    opt_string ~docv:"SOCKET" [ "coordinator" ]
      "Submit the sweep as one request to the lcp serve daemon at \
       $(docv); with $(b,--shards) K >= 2 the daemon runs the \
       coordinator itself and answers with the merged report."
  in
  let checkpoint_dir =
    opt_string ~docv:"DIR" [ "checkpoint-dir" ]
      "Coordinated mode: keep the per-shard checkpoints in $(docv) \
       (created if missing) instead of a throwaway temp dir; rerunning \
       with the same $(docv) resumes finished and partial shards."
  in
  let stall_s =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "stall-s" ] ~docv:"S"
          ~doc:
            "Coordinated mode: a worker whose checkpoint has not advanced \
             for $(docv) seconds, by the coordinator's clock, is declared \
             wedged, killed and restarted (default 120; must be positive \
             and finite).")
  in
  let max_restarts =
    count_opt ~docv:"K" 0 [ "max-restarts" ]
      "Coordinated mode: per-shard restart budget before the run \
       aborts (default 5)."
  in
  let inject_kill =
    count_opt ~docv:"I" 0 [ "inject-kill" ]
      "Fault injection for tests and CI (coordinated subprocess mode): \
       run shard $(docv)'s first worker with --max-chunks 1 and SIGKILL \
       it if it is still running once its checkpoint file exists, then \
       let supervision restart it (once, for a shard of more than one \
       chunk)."
  in
  let classes =
    opt_string [ "classes" ]
      "Sweep the class listing in $(docv) instead of enumerating: the \
       file a coordinator writes once per run ($(b,DIR/classes.json)) \
       and passes to every shard worker. A missing, truncated or \
       edited listing, or one for another order, is a usage error \
       (exit 2) naming $(docv); nothing runs."
  in
  let max_chunks =
    count_opt 1 [ "max-chunks" ]
      "Stop after $(docv) checkpoint chunk writes, leaving a valid \
       resumable $(b,--checkpoint) file — deterministic preemption for \
       tests and CI."
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Exhaustive soundness sweep over the whole n-node graph space via the \
          Lcp_engine domain pool (e.g. lcp sweep -n 8 -j 4 --metrics-out \
          m.json, or lcp sweep degree-one -n 6 --compare, or lcp sweep -n 8 \
          --shards 2 --shard 0 --checkpoint s0.json, or the coordinated lcp \
          sweep -n 8 --workers 4).")
    Term.(
      const run_sweep $ decoder $ sweep_flags $ opts_term $ compare $ shard
      $ checkpoint $ resume $ merge $ merge_out $ workers $ coordinator
      $ stall_s $ max_restarts $ inject_kill $ max_chunks $ checkpoint_dir
      $ classes $ metrics_out_arg)

let lint_cmd =
  let decoders =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DECODER"
          ~doc:"Decoders to lint (default: the whole registry).")
  in
  let json =
    opt_string [ "json" ]
      "Write the findings report as schema-versioned JSON to $(docv)."
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Sanitize the decoder registry: enforce the declared locality, \
          id/port-invariance and determinism contracts and report \
          certificate-taint tightness (e.g. lcp lint --json \
          lint-findings.json). Exits 1 on any violation.")
    Term.(
      const run_lint $ decoders $ lint_flags $ opts_term $ json
      $ metrics_out_arg)

let check_cmd =
  let decoder =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DECODER")
  in
  let graph =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH")
  in
  let trials =
    count_arg 1 2000 [ "trials" ] "Randomized adversary trials."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check an LCP's properties on one graph (e.g. lcp check degree-one path:6).")
    Term.(const run_check $ decoder $ graph $ trials $ seed_arg)

let sample_cmd =
  let decoder =
    Arg.(
      value & pos 0 string "trivial2"
      & info [] ~docv:"DECODER"
          ~doc:
            "Decoder to sample (default trivial2, the scalable k=2 \
             suite; the spanning suite materializes a per-id alphabet \
             and only suits small instances).")
  in
  let nodes =
    count_arg 1 100_000 [ "nodes" ] "Instance order (10^5..10^6 regime)."
  in
  let model =
    Arg.(
      value & opt string "gnp"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            (Printf.sprintf "Random-graph model: %s."
               Random_graphs.model_syntax))
  in
  let eval_nodes =
    count_arg ~docv:"K" 1 50_000 [ "eval-nodes" ]
      "Completeness sample size (nodes whose verdict is evaluated)."
  in
  let trials =
    count_arg ~docv:"K" 1 8 [ "trials" ]
      "Seeded adversarial labelings for the soundness phase."
  in
  let pairs =
    count_arg ~docv:"K" 1 2_000 [ "pairs" ]
      "Sampled view pairs for the hiding probe."
  in
  let json =
    opt_string [ "json" ] "Write the schema-versioned sample report to $(docv)."
  in
  let deadline =
    count_opt ~docv:"MS" 0 [ "deadline-ms" ]
      "Wall-clock budget: phases still pending when it expires are skipped \
       (reported as null), finished tallies are unaffected."
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Sampled certification of one large seeded random instance: \
          honest-prover completeness over a node sample, seeded \
          adversarial soundness trials and a sampled hiding probe (e.g. \
          lcp sample --nodes 1000000 --model gnp --seed 7 --json \
          sample.json). Deterministic in --seed, independent of -j.")
    Term.(
      const run_sample $ decoder $ model $ nodes $ eval_nodes $ trials $ pairs
      $ json $ deadline $ cfg_term)

let viewgraph_cmd =
  let decoder =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DECODER")
  in
  let graphs =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"GRAPH...")
  in
  let out = opt_string [ "out" ] "DOT output." in
  Cmd.v
    (Cmd.info "viewgraph"
       ~doc:"Build the accepting neighborhood graph V(D,n) from honest instances.")
    Term.(const run_viewgraph $ decoder $ graphs $ out)

let forgetful_cmd =
  let graph = Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH") in
  let r = count_arg 0 1 [ "r"; "radius" ] "Radius." in
  Cmd.v
    (Cmd.info "forgetful" ~doc:"Check the r-forgetful property of a graph.")
    Term.(const run_forgetful $ graph $ r)

let export_cmd =
  let decoder = Arg.(required & pos 0 (some string) None & info [] ~docv:"DECODER") in
  let graph = Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH") in
  let out = opt_string [ "out" ] "JSON output file." in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Certify a graph and export the instance + verdicts as JSON.")
    Term.(const run_export $ decoder $ graph $ out)

let figures_cmd =
  let dir =
    Arg.(value & opt string "figures" & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figure artifacts as DOT files.")
    Term.(const run_figures $ dir)

let socket_arg =
  Arg.(
    value & opt string "lcp.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let capacity =
    count_arg 0 16 [ "capacity" ]
      "Job-queue bound: requests beyond $(docv) waiting jobs are \
       rejected immediately with $(b,queue_full) instead of queueing \
       unboundedly. 0 refuses every job (control requests still work)."
  in
  let workers =
    count_arg ~most:Lcp_serve.Server.max_workers 1
      (Lcp_engine.Pool.default_jobs ())
      [ "workers" ]
      (Printf.sprintf
         "Worker domains draining the queue, each running one job at a time, \
          so $(docv) jobs run in parallel. Defaults to the recommended domain \
          count (one worker per core); must be in 1..%d."
         Lcp_serve.Server.max_workers)
  in
  let max_jobs =
    count_arg 0 0 [ "max-jobs" ]
      "Cap on the domain-pool width a request may ask for (its jobs option; \
       requests default to 1). 0 means the recommended domain count."
  in
  let max_n =
    count_arg 1 7 [ "max-n" ] "Cap on the sweep order clients may request."
  in
  let max_deadline =
    count_opt ~docv:"MS" 0 [ "max-deadline-ms" ]
      "Cap (and default) for client deadlines, if any."
  in
  let max_shards =
    count_arg ~docv:"K" 1 Session.default_limits.Session.max_shards
      [ "max-shards" ]
      "Cap on the partition width of coordinated sweep requests."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the certification daemon: a Unix-socket JSON server with warm \
          iso-class and acceptance-table caches, a bounded job queue and live \
          metrics (e.g. lcp serve --socket /tmp/lcp.sock). Stop it with lcp \
          client shutdown.")
    Term.(
      const run_serve $ socket_arg $ capacity $ workers $ max_jobs $ max_n
      $ max_deadline $ max_shards)

let client_cmd =
  let batch =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Batch mode: read newline-delimited raw JSON requests from stdin, \
             write each response line to stdout (events go to stderr). The \
             exit code is the worst one across the batch.")
  in
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "ping | metrics | shutdown | check DECODER GRAPH | prove DECODER \
             GRAPH | sweep [DECODER] | lint [DECODER...]")
  in
  let heavy =
    Arg.(value & flag & info [ "heavy" ] ~doc:"Ask for the heavy variants.")
  in
  let deadline =
    count_opt ~docv:"MS" 0 [ "deadline-ms" ]
      "Wall-clock budget from admission; an expired job answers $(b,expired)."
  in
  let opts opts heavy deadline_ms =
    { opts with Protocol.heavy = (if heavy then Some true else None); deadline_ms }
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running lcp serve daemon and print the \
          response (e.g. lcp client check degree-one cycle:5, lcp client \
          sweep degree-one -n 5, echo '{...}' | lcp client --stdin). Exit \
          code: 0 ok, 1 violation or failure, 2 usage error.")
    Term.(
      const run_client $ socket_arg $ batch $ args $ sweep_flags $ lint_flags
      $ (const opts $ opts_term $ heavy $ deadline))

let run_race scenarios seed schedules period json_out list_only defects =
  if list_only then begin
    List.iter
      (fun s ->
        Format.printf "%-18s %s%s@." s.Lcp_race.Scenario.name
          s.Lcp_race.Scenario.descr
          (if s.Lcp_race.Scenario.defect then " [defect double]" else ""))
      Lcp_race.Scenario.all;
    0
  end
  else begin
    let chosen =
      match scenarios with
      | [] ->
          if defects then Lcp_race.Scenario.all else Lcp_race.Scenario.clean
      | names ->
          List.map
            (fun name ->
              match Lcp_race.Scenario.find name with
              | Some s -> s
              | None ->
                  failwith
                    (Printf.sprintf "unknown scenario %s (try lcp race --list)"
                       name))
            names
    in
    let report = Lcp_race.Race.run ~seed ~schedules ~period chosen in
    Format.printf "%a@." Lcp_race.Race.pp report;
    Option.iter
      (fun path -> write_json path (Lcp_race.Race.to_json report))
      json_out;
    if Lcp_race.Race.violations report = [] then 0 else 1
  end

let race_cmd =
  let scenarios =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenarios to drive (default: every clean scenario). See \
             $(b,--list).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Perturbation seed. The same seed replays the same deterministic \
             pause pattern and renders a byte-identical report.")
  in
  let schedules =
    count_arg ~docv:"K" 1 Lcp_race.Race.default_schedules [ "schedules" ]
      "Seeded schedules to run per scenario."
  in
  let period =
    count_arg ~docv:"P" 0 Lcp_race.Race.default_period [ "period" ]
      "Roughly one perturbation pause per $(docv) sync operations per \
       thread; 0 disables pausing (tracing only)."
  in
  let json_out =
    opt_string [ "json" ] "Write the findings report to $(docv)."
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit.")
  in
  let defects =
    Arg.(
      value & flag
      & info [ "defects" ]
          ~doc:
            "Include the deliberately broken defect doubles (they exist to \
             prove the detector fires; expect exit 1).")
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Concurrency sanitizer: run the shipped parallel subsystems under \
          traced synchronization and seeded schedule perturbation, then \
          report happens-before data races, lock-order inversions and leaked \
          locks (e.g. lcp race --schedules 20 --seed 7 --json findings.json). \
          Exit code 1 on any finding of severity error.")
    Term.(
      const run_race $ scenarios $ seed $ schedules $ period $ json_out
      $ list_only $ defects)

(* Exit-code discipline, documented in the README: 0 = ran and passed,
   1 = ran and found a violation (or failed), 2 = usage error. Parser
   [failwith]s, [Session.Usage] and cmdliner's own CLI errors all land
   on 2. *)
let guard body =
  try body () with
  | Failure msg | Session.Usage msg ->
      Format.eprintf "lcp: %s@." msg;
      2
  | Unix.Unix_error (err, fn, arg) ->
      Format.eprintf "lcp: %s: %s %s@." fn (Unix.error_message err) arg;
      1

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "lcp" ~version:Version.version
      ~doc:"Strong and hiding distributed certification of k-coloring (PODC 2025 reproduction)."
  in
  let code =
    guard (fun () ->
        Cmd.eval' ~catch:false ~term_err:2
          (Cmd.group ~default info
             [ experiments_cmd; sweep_cmd; lint_cmd; check_cmd; sample_cmd;
               viewgraph_cmd;
               forgetful_cmd; figures_cmd; export_cmd; serve_cmd; client_cmd;
               race_cmd ]))
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)