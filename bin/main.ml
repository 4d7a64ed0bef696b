(* The lcp command-line front-end: run experiments, check LCP
   properties, survey forgetfulness, export neighborhood graphs. *)

open Lcp_graph
open Lcp_local
open Lcp

(* ------------------------------------------------------------------ *)
(* parsers                                                             *)

(* Graph-spec parsing lives in [Builders.of_spec] (shared with the
   serve daemon); the CLI only converts the error into the usage-error
   path. *)
let parse_graph spec =
  match Builders.of_spec spec with Ok g -> g | Error msg -> failwith msg

(* The one decoder listing lives in [Lcp.Registry]; the CLI only
   resolves keys against it. *)
let parse_entry name =
  match Registry.find name with
  | Some e -> e
  | None ->
      failwith
        (Printf.sprintf "unknown decoder %s; available: %s" name
           (String.concat " " Registry.keys))

let parse_suite name = (parse_entry name).Registry.suite

(* ------------------------------------------------------------------ *)
(* subcommand bodies                                                   *)

(* Each engine-backed subcommand builds exactly ONE [Run_cfg.t] from its
   flags, right here, and every layer below reads that record —
   parallelism, seed, sink — instead of taking its own [?jobs] /
   [?heavy] optionals. [jobs = 0] (the flag default) is normalized by
   [Run_cfg.make] to the recommended domain count. *)
let build_cfg ?(heavy = true) ?deadline ~jobs ~seed ~progress ~metrics_out () =
  let sink = Lcp_obs.Sink.of_outputs ~progress ?metrics_out () in
  Run_cfg.make ~jobs ~heavy ?seed ~sink ?deadline ()

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc content;
      output_string oc "\n")

let run_experiments heavy markdown json jobs seed metrics_out progress =
  let cfg = build_cfg ~heavy ~jobs ~seed ~progress ~metrics_out () in
  let reports = Experiments.run_all ~cfg () in
  Report.pp_all Format.std_formatter reports;
  (match markdown with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "# EXPERIMENTS — measured vs paper\n\n";
      output_string oc
        (Printf.sprintf
           "Generated by `lcp experiments%s`. See DESIGN.md for the experiment \
            index.\n\n"
           (if heavy then " --heavy" else ""));
      List.iter (fun r -> output_string oc (Report.to_markdown r); output_string oc "\n") reports;
      close_out oc;
      Format.printf "markdown written to %s@." path);
  (match json with
  | None -> ()
  | Some path ->
      write_file path (Json.to_string_pretty (Report.battery_to_json reports));
      Format.printf "json written to %s@." path);
  Run_cfg.flush cfg;
  if List.for_all Report.passed reports then 0 else 1

let run_check decoder_name graph_spec trials seed =
  let suite = parse_suite decoder_name in
  let g = parse_graph graph_spec in
  let inst = Instance.make g in
  let rng = Random.State.make [| seed |] in
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
let run_sample decoder_name model nodes eval_nodes trials pairs json jobs seed
    deadline_ms metrics_out progress =
  let suite = parse_suite decoder_name in
  if nodes < 1 then failwith "sample: need --nodes >= 1";
  let deadline =
    Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms
  in
  let cfg = build_cfg ?deadline ~jobs ~seed ~progress ~metrics_out () in
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
      write_file path
        (Json.to_string_pretty (Sampling.report_to_json report));
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
      let oc = open_out path in
      output_string oc (Neighborhood.to_dot nbhd);
      close_out oc;
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
    let oc = open_out path in
    output_string oc content;
    close_out oc;
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
           (Enumerate.classes 4 @ Enumerate.classes 3))
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
      let rendered =
        Json.to_string_pretty (Lcp_engine.Checkpoint.report_json merged)
      in
      (match out with
      | Some path ->
          write_file path rendered;
          Format.printf "merged report written to %s@." path
      | None -> print_endline rendered);
      if merged.Lcp_engine.Checkpoint.violations = 0 then 0 else 1

(* Exit-code discipline for scripted clients: 0 when the job ran and
   its payload says ok, 2 when the request itself was malformed, 1 for
   everything else (violations, rejections, expiry, dead daemon). *)
let client_exit_code (resp : Lcp_serve.Protocol.response) =
  match resp.Lcp_serve.Protocol.status with
  | Lcp_serve.Protocol.Done -> (
      match Lcp_obs.Json.member "ok" resp.Lcp_serve.Protocol.result with
      | Ok (Lcp_obs.Json.Bool false) -> 1
      | _ -> 0)
  | Lcp_serve.Protocol.Failed
    when Option.fold ~none:false
           ~some:(fun r ->
             String.length r >= 6 && String.sub r 0 6 = "usage:")
           resp.Lcp_serve.Protocol.reason ->
      2
  | _ -> 1

let print_event ev =
  Format.eprintf "%s@."
    (Lcp_obs.Json.to_string (Lcp_serve.Protocol.event_to_json ev))

(* --coordinator: hand the whole sweep to a running daemon as one
   [sweep] request with [shards], and let it run the coordinator
   server-side; the response carries the merged report. *)
let run_sweep_submit socket ~decoder_name ~n ~strategy_name ~shards ~jobs ~seed
    ~progress =
  let opts =
    {
      Lcp_serve.Protocol.jobs = (if jobs = 0 then None else Some jobs);
      heavy = None;
      seed;
      deadline_ms = None;
      progress;
    }
  in
  let req =
    {
      Lcp_serve.Protocol.kind =
        Lcp_serve.Protocol.Sweep
          {
            decoder = decoder_name;
            n;
            strategy = strategy_name;
            early_exit = false;
            shards;
          };
      opts;
    }
  in
  Lcp_serve.Client.with_connection socket (fun c ->
      match Lcp_serve.Client.request ~on_event:print_event c req with
      | Error msg ->
          Format.eprintf "lcp sweep: coordinator %s: %s@." socket msg;
          1
      | Ok resp ->
          print_endline
            (Json.to_string_pretty (Lcp_serve.Protocol.response_to_json resp));
          client_exit_code resp)

(* --workers/--remote: run the coordinator in this process — fork (or
   farm out) supervised shard workers and render the merged report
   exactly as --merge would. *)
let run_sweep_coordinated ~decoder_name ~n ~strategy ~jobs ~workers ~remotes
    ~shards ~checkpoint_dir ~merge_out ~inject_kill ~stall_s ~max_restarts ~seed
    ~metrics_out ~progress =
  ignore (parse_suite decoder_name);
  let workers = if workers > 0 then workers else List.length remotes in
  let shards = if shards > 1 then shards else workers in
  let workers = min workers shards in
  (* Each worker owns its own domain pool; splitting the recommended
     width keeps K workers from oversubscribing the machine. *)
  let worker_jobs =
    if jobs > 0 then jobs
    else max 1 (Lcp_engine.Pool.default_jobs () / max 1 workers)
  in
  let dir, cleanup =
    match checkpoint_dir with
    | Some d -> (d, fun () -> ())
    | None ->
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "lcp-coord-%d" (Unix.getpid ()))
        in
        ( d,
          fun () ->
            if Sys.file_exists d then begin
              Array.iter
                (fun f ->
                  try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
                (Sys.readdir d);
              try Unix.rmdir d with Unix.Unix_error _ -> ()
            end )
  in
  let cfg = build_cfg ~jobs ~seed ~progress ~metrics_out () in
  let config =
    {
      (Lcp_serve.Coordinator.default_config ~decoder:decoder_name ~n ~shards
         ~dir)
      with
      Lcp_serve.Coordinator.strategy;
      workers;
      jobs = worker_jobs;
      executor =
        (match remotes with
        | [] -> Lcp_serve.Coordinator.Subprocess { bin = Sys.executable_name }
        | sockets -> Lcp_serve.Coordinator.Remote { sockets });
      inject_kill;
    }
  in
  let config =
    match stall_s with
    | Some s -> { config with Lcp_serve.Coordinator.stall_s = s }
    | None -> config
  in
  let config =
    match max_restarts with
    | Some m -> { config with Lcp_serve.Coordinator.max_restarts = m }
    | None -> config
  in
  Format.printf
    "coordinated sweep: decoder %s, n=%d, strategy=%s, shards=%d, workers=%d \
     (%d jobs each), executor=%s@."
    decoder_name n
    (Lcp_engine.Sweep.strategy_name strategy)
    shards workers worker_jobs
    (match remotes with
    | [] -> "subprocess"
    | socks -> Printf.sprintf "remote (%d daemons)" (List.length socks));
  match Lcp_serve.Coordinator.run ~cfg config with
  | Error msg ->
      Run_cfg.flush cfg;
      Format.eprintf
        "lcp sweep: %s@.(shard checkpoints kept in %s; rerun with \
         --checkpoint-dir %s to resume)@."
        msg dir dir;
      1
  | Ok o ->
      let rendered = Json.to_string_pretty o.Lcp_serve.Coordinator.report in
      Format.printf
        "coordinator: %d workers launched, %d restarts, %d steals, %.3fs@."
        o.Lcp_serve.Coordinator.launched o.Lcp_serve.Coordinator.restarts
        o.Lcp_serve.Coordinator.steals o.Lcp_serve.Coordinator.wall_s;
      (match merge_out with
      | Some path ->
          write_file path rendered;
          Format.printf "merged report written to %s@." path
      | None -> print_endline rendered);
      cleanup ();
      Run_cfg.flush cfg;
      if o.Lcp_serve.Coordinator.merged.Lcp_engine.Checkpoint.violations = 0
      then 0
      else 1

(* Engine-powered soundness sweep over the whole n-node space: every
   connected non-bipartite iso class on exactly n nodes must admit no
   unanimously accepted labeling. With --compare the sweep runs twice
   (jobs=1 then the requested width) and the verdicts are checked for
   bit-identity — the engine's determinism contract made observable.
   --shards/--shard slice the class stream; --checkpoint/--resume make
   the slice durable; --merge folds finished shard checkpoints back
   together. *)
let run_sweep decoder_name n strategy_name jobs early_exit compare shards
    shard_ix checkpoint_path resume merge_files merge_out workers remotes
    coordinator_addr stall_s max_restarts inject_kill max_chunks
    checkpoint_dir seed metrics_out progress =
  if merge_files <> [] then run_sweep_merge merge_files merge_out
  else begin
  let strategy =
    match Lcp_engine.Sweep.strategy_of_string strategy_name with
    | Some s -> s
    | None ->
        Format.eprintf
          "lcp sweep: unknown strategy %s (expected orderly or mask-scan)@."
          strategy_name;
        exit 2
  in
  if n < 1 || n > Lcp_engine.Canon.max_order then begin
    Format.eprintf "lcp sweep: n must be between 1 and %d@."
      Lcp_engine.Canon.max_order;
    exit 2
  end;
  (match strategy with
  | Lcp_engine.Sweep.Orderly -> ()
  | Lcp_engine.Sweep.Mask_scan ->
      if n * (n - 1) / 2 > 30 then begin
        Format.eprintf
          "lcp sweep: --strategy mask-scan scans every edge mask and the \
           %d-node space needs %d mask bits (cap 30); use the default \
           orderly strategy for n > 8@."
          n
          (n * (n - 1) / 2);
        exit 2
      end;
      if n >= 8 && Sys.getenv_opt "LCP_HEAVY" = None then begin
        Format.eprintf
          "lcp sweep: --strategy mask-scan at n >= 8 scans 2^%d masks \
           (minutes of pure enumeration); set LCP_HEAVY=1 to confirm, or \
           use the default orderly strategy@."
          (n * (n - 1) / 2);
        exit 2
      end);
  let coordinated = workers > 0 || remotes <> [] in
  if coordinator_addr <> None && coordinated then begin
    Format.eprintf
      "lcp sweep: --coordinator submits the job to a daemon; it excludes \
       --workers and --remote@.";
    exit 2
  end;
  if
    (coordinated || coordinator_addr <> None)
    && (early_exit || compare || resume || checkpoint_path <> None
       || shard_ix <> 0 || max_chunks <> None)
  then begin
    Format.eprintf
      "lcp sweep: coordinated sweeps are exhaustive whole-space runs; drop \
       --early-exit/--compare/--shard/--checkpoint/--resume/--max-chunks@.";
    exit 2
  end;
  match coordinator_addr with
  | Some socket ->
      run_sweep_submit socket ~decoder_name ~n ~strategy_name ~shards ~jobs
        ~seed ~progress
  | _ when coordinated ->
      run_sweep_coordinated ~decoder_name ~n ~strategy ~jobs ~workers ~remotes
        ~shards ~checkpoint_dir ~merge_out ~inject_kill ~stall_s ~max_restarts
        ~seed ~metrics_out ~progress
  | None ->
  if shards < 1 || shard_ix < 0 || shard_ix >= shards then begin
    Format.eprintf
      "lcp sweep: need --shards K >= 1 and 0 <= --shard I < K (got K=%d, \
       I=%d)@."
      shards shard_ix;
    exit 2
  end;
  if resume && checkpoint_path = None then begin
    Format.eprintf "lcp sweep: --resume needs --checkpoint FILE@.";
    exit 2
  end;
  if checkpoint_path <> None && early_exit then begin
    Format.eprintf
      "lcp sweep: --checkpoint requires the exhaustive mode (drop \
       --early-exit)@.";
    exit 2
  end;
  if checkpoint_path <> None && compare then begin
    Format.eprintf
      "lcp sweep: --compare re-runs the sweep and would fight over the \
       checkpoint file; use one or the other@.";
    exit 2
  end;
  (match max_chunks with
  | Some m when m < 1 ->
      Format.eprintf "lcp sweep: --max-chunks must be >= 1@.";
      exit 2
  | Some _ when checkpoint_path = None ->
      Format.eprintf "lcp sweep: --max-chunks needs --checkpoint FILE@.";
      exit 2
  | _ -> ());
  let shard = if shards = 1 then None else Some (shard_ix, shards) in
  let checkpoint =
    Option.map
      (fun path -> { Lcp_engine.Checkpoint.path; resume; tag = decoder_name })
      checkpoint_path
  in
  let suite = parse_suite decoder_name in
  let cfg = build_cfg ~jobs ~seed ~progress ~metrics_out () in
  let jobs = cfg.Run_cfg.jobs in
  let sweep_once cfg =
    Lcp_engine.Sweep.clear_cache ();
    Checker.soundness_sweep ~cfg ~strategy ?shard ?checkpoint ?max_chunks
      ~early_exit suite ~n
  in
  let report (s : _ Lcp_engine.Sweep.summary) =
    Format.printf "%a@." Lcp_engine.Sweep.pp_summary s;
    (match s.Lcp_engine.Sweep.counterexample with
    | None -> ()
    | Some (g, inst) ->
        Format.printf "counterexample (class representative %a): %a@." Lcp_graph.Graph.pp g
          Instance.pp inst);
    Format.printf "verdict: %a@." Checker.pp_verdict (Checker.verdict_of_sweep s)
  in
  Format.printf "soundness sweep: decoder %s, n=%d, jobs=%d, strategy=%s%s%s%s@."
    decoder_name n jobs
    (Lcp_engine.Sweep.strategy_name strategy)
    (if early_exit then ", early-exit" else "")
    (if shards > 1 then Printf.sprintf ", shard %d/%d" shard_ix shards else "")
    (match checkpoint_path with
    | Some p -> Printf.sprintf ", checkpoint %s%s" p (if resume then " (resume)" else "")
    | None -> "");
  let final =
    if not compare then begin
      let s = sweep_once cfg in
      report s;
      s
    end
    else begin
      Format.printf "--- jobs=1 (sequential reference)@.";
      let seq = sweep_once (Run_cfg.sequential cfg) in
      report seq;
      Format.printf "--- jobs=%d@." jobs;
      let par = sweep_once cfg in
      report par;
      let identical =
        Checker.verdict_of_sweep seq = Checker.verdict_of_sweep par
        && seq.Lcp_engine.Sweep.counters = par.Lcp_engine.Sweep.counters
      in
      Format.printf "--- comparison@.";
      Format.printf "verdicts and counters identical: %b@." identical;
      if par.Lcp_engine.Sweep.wall_s > 0. then
        Format.printf "speedup: %.2fx (%.3fs -> %.3fs)@."
          (seq.Lcp_engine.Sweep.wall_s /. par.Lcp_engine.Sweep.wall_s)
          seq.Lcp_engine.Sweep.wall_s par.Lcp_engine.Sweep.wall_s;
      if not identical then failwith "parallel sweep diverged from jobs=1";
      par
    end
  in
  Run_cfg.flush cfg;
  if Checker.is_pass (Checker.verdict_of_sweep final) then 0 else 1
  end

(* The decoder sanitizer: sweep registry entries through the
   Lcp_analysis passes and gate on violations. Numbers in the report
   (and the JSON file) depend only on (seed, max-n, samples) — never on
   jobs — so CI can diff artifacts across machines. *)
let run_lint decoders json max_n samples jobs seed metrics_out progress =
  let entries =
    match decoders with
    | [] -> Registry.all
    | keys -> List.map parse_entry keys
  in
  let cfg = build_cfg ~jobs ~seed ~progress ~metrics_out () in
  let report = Lcp_analysis.Lint.run ~cfg ~max_n ~samples entries in
  Format.printf "%a@." Lcp_analysis.Lint.pp_report report;
  (match json with
  | None -> ()
  | Some path ->
      write_file path
        (Json.to_string_pretty (Lcp_analysis.Lint.report_to_json report));
      Format.printf "json written to %s@." path);
  Run_cfg.flush cfg;
  if Lcp_analysis.Lint.violations report = [] then 0 else 1

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
  if workers < 1 || workers > Lcp_serve.Server.max_workers then begin
    Format.eprintf "lcp serve: --workers must be between 1 and %d (got %d)@."
      Lcp_serve.Server.max_workers workers;
    exit 2
  end;
  let limits =
    {
      Lcp_serve.Session.default_limits with
      Lcp_serve.Session.max_jobs =
        (if max_jobs <= 0 then Lcp_engine.Pool.default_jobs () else max_jobs);
      max_n;
      max_deadline_ms;
      max_shards = max 1 max_shards;
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
    socket capacity workers limits.Lcp_serve.Session.max_jobs;
  (* a polite Ctrl-C shuts the daemon down like a shutdown request *)
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle (fun _ -> Lcp_serve.Server.stop t))
   with Invalid_argument _ -> ());
  Lcp_serve.Server.wait t;
  Format.printf "lcp serve: shut down@.";
  0

(* Build a protocol request from `lcp client KIND [ARGS...]` plus the
   shared flags; mirrors the JSON a scripted client would write. *)
let client_request args ~jobs ~heavy ~seed ~deadline_ms ~progress ~n ~strategy
    ~early_exit ~shards ~max_n ~samples =
  let opts =
    {
      Lcp_serve.Protocol.jobs = (if jobs = 0 then None else Some jobs);
      heavy = (if heavy then Some true else None);
      seed;
      deadline_ms;
      progress;
    }
  in
  let kind =
    match args with
    | [ "ping" ] -> Lcp_serve.Protocol.Ping
    | [ "metrics" ] -> Lcp_serve.Protocol.Metrics
    | [ "shutdown" ] -> Lcp_serve.Protocol.Shutdown
    | [ "check"; decoder; graph ] -> Lcp_serve.Protocol.Check { decoder; graph }
    | [ "prove"; decoder; graph ] -> Lcp_serve.Protocol.Prove { decoder; graph }
    | [ "sweep" ] ->
        Lcp_serve.Protocol.Sweep
          { decoder = "degree-one"; n; strategy; early_exit; shards }
    | [ "sweep"; decoder ] ->
        Lcp_serve.Protocol.Sweep { decoder; n; strategy; early_exit; shards }
    | "lint" :: decoders -> Lcp_serve.Protocol.Lint { decoders; max_n; samples }
    | _ ->
        failwith
          "expected one of: ping | metrics | shutdown | check DECODER GRAPH | \
           prove DECODER GRAPH | sweep [DECODER] | lint [DECODER...]"
  in
  { Lcp_serve.Protocol.kind; opts }

let run_client socket batch args jobs heavy seed deadline_ms progress n strategy
    early_exit shards max_n samples =
  if batch then begin
    (* newline-delimited raw JSON requests on stdin, responses on
       stdout — the CI smoke test's scripting surface *)
    let code = ref 0 in
    Lcp_serve.Client.with_connection socket (fun c ->
        try
          while true do
            let line = input_line stdin in
            if String.trim line <> "" then
              match Lcp_obs.Json.of_string line with
              | Error msg ->
                  Format.eprintf "lcp client: bad request line: %s@." msg;
                  code := 2
              | Ok json -> (
                  match
                    Lcp_serve.Client.request_json
                      ~on_event:(fun j ->
                        Format.eprintf "%s@." (Lcp_obs.Json.to_string j))
                      c json
                  with
                  | Error msg ->
                      Format.eprintf "lcp client: %s@." msg;
                      code := 1
                  | Ok resp -> (
                      print_endline (Lcp_obs.Json.to_string resp);
                      match Lcp_serve.Protocol.response_of_json resp with
                      | Ok r -> code := max !code (client_exit_code r)
                      | Error _ -> code := 1))
          done
        with End_of_file -> ());
    !code
  end
  else begin
    let req =
      client_request args ~jobs ~heavy ~seed ~deadline_ms ~progress ~n ~strategy
        ~early_exit ~shards ~max_n ~samples
    in
    Lcp_serve.Client.with_connection socket (fun c ->
        match Lcp_serve.Client.request ~on_event:print_event c req with
        | Error msg ->
            Format.eprintf "lcp client: %s@." msg;
            1
        | Ok resp ->
            print_endline
              (Lcp_obs.Json.to_string_pretty
                 (Lcp_serve.Protocol.response_to_json resp));
            client_exit_code resp)
  end

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)

open Cmdliner

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domain-pool width for the engine-backed searches; 0 (the default) \
           means the recommended domain count, 1 forces the sequential path. \
           Results are independent of $(docv).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Root seed for every PRNG the run derives; defaults to the repo-wide \
           experiment seed.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's aggregate metrics (spans, counters, gauges) as JSON \
           to $(docv) when the run ends.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Stream span and progress events to stderr.")

let experiments_cmd =
  let heavy =
    Arg.(value & flag & info [ "heavy" ] ~doc:"Run the larger exhaustive searches.")
  in
  let markdown =
    Arg.(
      value
      & opt (some string) None
      & info [ "markdown" ] ~docv:"FILE" ~doc:"Write the reports as markdown.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the reports as schema-versioned JSON.")
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the full E1-E20 reproduction battery.")
    Term.(
      const run_experiments $ heavy $ markdown $ json $ jobs_arg $ seed_arg
      $ metrics_out_arg $ progress_arg)

let sweep_cmd =
  let decoder =
    Arg.(
      value & pos 0 string "degree-one"
      & info [] ~docv:"DECODER"
          ~doc:"Decoder suite to sweep (default degree-one).")
  in
  let n =
    Arg.(
      value & opt int 6
      & info [ "n" ] ~docv:"N"
          ~doc:"Graph order: sweep every connected non-bipartite iso class on \
                exactly $(docv) nodes.")
  in
  let early_exit =
    Arg.(
      value & flag
      & info [ "early-exit" ]
          ~doc:"Stop scanning once a (minimal) counterexample is found.")
  in
  let strategy =
    Arg.(
      value & opt string "orderly"
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Class enumeration strategy: $(b,orderly) (canonical \
             augmentation, the default — work scales with the class count) \
             or $(b,mask-scan) (exhaustive scan of every edge mask, the \
             cross-validation oracle). Both produce identical classes and \
             verdicts.")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:"Run jobs=1 then the requested width and check the verdicts are \
                bit-identical.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Slice the class stream into $(docv) disjoint shards keyed by a \
             hash of each class's canonical edge mask (strategy- and \
             jobs-independent); this process sweeps only the shard selected \
             by $(b,--shard). Per-shard checkpoints merge back into the \
             unsharded totals with $(b,--merge).")
  in
  let shard =
    Arg.(
      value & opt int 0
      & info [ "shard" ] ~docv:"I"
          ~doc:"Which shard (0-based, < $(b,--shards)) this process sweeps.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Persist sweep progress to $(docv): counters are written \
             atomically after every execution chunk, so a killed run loses \
             at most one chunk. Exhaustive mode only (not --early-exit).")
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
    Arg.(
      value
      & opt (some string) None
      & info [ "merge-out" ] ~docv:"FILE"
          ~doc:
            "Write the merged report to $(docv) instead of stdout (also the \
             coordinated mode's merged report).")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Coordinated mode: fork and supervise $(docv) checkpointed shard \
             workers (crashed or stalled workers are restarted from their \
             last completed chunk with capped backoff) and merge their shards \
             into the canonical report. $(b,--shards) defaults to $(docv) \
             when unset. See also $(b,--remote), $(b,--checkpoint-dir), \
             $(b,--coordinator).")
  in
  let remote =
    Arg.(
      value & opt_all string []
      & info [ "remote" ] ~docv:"SOCKET"
          ~doc:
            "Coordinated mode (repeatable): instead of forking local \
             workers, farm each shard to the lcp serve daemon at $(docv) as \
             a sweep-shard request. Placement is round-robin; a failed shard \
             retries on the next daemon.")
  in
  let coordinator =
    Arg.(
      value
      & opt (some string) None
      & info [ "coordinator" ] ~docv:"SOCKET"
          ~doc:
            "Submit the sweep as one request to the lcp serve daemon at \
             $(docv); with $(b,--shards) K >= 2 the daemon runs the \
             coordinator itself and answers with the merged report.")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Coordinated mode: keep the per-shard checkpoints in $(docv) \
             (created if missing) instead of a throwaway temp dir; rerunning \
             with the same $(docv) resumes finished and partial shards.")
  in
  let stall_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "stall-s" ] ~docv:"S"
          ~doc:
            "Coordinated mode: a worker that has run longer than $(docv) \
             seconds without refreshing its checkpoint heartbeat is declared \
             wedged, killed and restarted (default 120).")
  in
  let max_restarts =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-restarts" ] ~docv:"K"
          ~doc:
            "Coordinated mode: per-shard restart budget before the run \
             aborts (default 5).")
  in
  let inject_kill =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-kill" ] ~docv:"I"
          ~doc:
            "Fault injection for tests and CI (coordinated subprocess mode): \
             SIGKILL shard $(docv)'s first worker once its checkpoint file \
             exists, then let supervision recover it.")
  in
  let max_chunks =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-chunks" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) checkpoint chunk writes, leaving a valid \
             resumable $(b,--checkpoint) file — deterministic preemption for \
             tests and CI.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Exhaustive soundness sweep over the whole n-node graph space via the \
          Lcp_engine domain pool (e.g. lcp sweep -n 8 -j 4 --metrics-out \
          m.json, or lcp sweep degree-one -n 6 --compare, or lcp sweep -n 8 \
          --shards 2 --shard 0 --checkpoint s0.json, or the coordinated lcp \
          sweep -n 8 --workers 4). The default orderly strategy reaches n = 9 \
          and beyond; mask-scan is capped at n = 8 and from n = 8 up demands \
          LCP_HEAVY=1 (it scans the full 2^28 mask space).")
    Term.(
      const run_sweep $ decoder $ n $ strategy $ jobs_arg $ early_exit
      $ compare $ shards $ shard $ checkpoint $ resume $ merge $ merge_out
      $ workers $ remote $ coordinator $ stall_s $ max_restarts $ inject_kill $ max_chunks
      $ checkpoint_dir $ seed_arg $ metrics_out_arg $ progress_arg)

let lint_cmd =
  let decoders =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DECODER"
          ~doc:"Decoders to lint (default: the whole registry).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the findings report as schema-versioned JSON to $(docv).")
  in
  let max_n =
    Arg.(
      value & opt int Lcp_analysis.Corpus.default_max_n
      & info [ "max-n" ] ~docv:"N"
          ~doc:
            "Lint against every connected isomorphism class on up to $(docv) \
             nodes.")
  in
  let samples =
    Arg.(
      value & opt int Lcp_analysis.Corpus.default_samples
      & info [ "samples" ] ~docv:"K"
          ~doc:
            "Adversarial labelings per class, and re-drawings per invariance \
             check.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Sanitize the decoder registry: enforce the declared locality, \
          id/port-invariance and determinism contracts and report \
          certificate-taint tightness (e.g. lcp lint --json \
          lint-findings.json). Exits 1 on any violation.")
    Term.(
      const run_lint $ decoders $ json $ max_n $ samples $ jobs_arg $ seed_arg
      $ metrics_out_arg $ progress_arg)

let check_cmd =
  let decoder =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DECODER")
  in
  let graph =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH")
  in
  let trials =
    Arg.(value & opt int 2000 & info [ "trials" ] ~doc:"Randomized adversary trials.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check an LCP's properties on one graph (e.g. lcp check degree-one path:6).")
    Term.(const run_check $ decoder $ graph $ trials $ seed)

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
    Arg.(
      value & opt int 100_000
      & info [ "nodes" ] ~docv:"N" ~doc:"Instance order (10^5..10^6 regime).")
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
    Arg.(
      value & opt int 50_000
      & info [ "eval-nodes" ] ~docv:"K"
          ~doc:"Completeness sample size (nodes whose verdict is evaluated).")
  in
  let trials =
    Arg.(
      value & opt int 8
      & info [ "trials" ] ~docv:"K"
          ~doc:"Seeded adversarial labelings for the soundness phase.")
  in
  let pairs =
    Arg.(
      value & opt int 2_000
      & info [ "pairs" ] ~docv:"K" ~doc:"Sampled view pairs for the hiding probe.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the schema-versioned sample report to $(docv).")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget: phases still pending when it expires are \
             skipped (reported as null), finished tallies are unaffected.")
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
      $ json $ jobs_arg $ seed_arg $ deadline $ metrics_out_arg $ progress_arg)

let viewgraph_cmd =
  let decoder =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DECODER")
  in
  let graphs =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"GRAPH...")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"DOT output.")
  in
  Cmd.v
    (Cmd.info "viewgraph"
       ~doc:"Build the accepting neighborhood graph V(D,n) from honest instances.")
    Term.(const run_viewgraph $ decoder $ graphs $ out)

let forgetful_cmd =
  let graph = Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH") in
  let r = Arg.(value & opt int 1 & info [ "r"; "radius" ] ~doc:"Radius.") in
  Cmd.v
    (Cmd.info "forgetful" ~doc:"Check the r-forgetful property of a graph.")
    Term.(const run_forgetful $ graph $ r)

let export_cmd =
  let decoder = Arg.(required & pos 0 (some string) None & info [] ~docv:"DECODER") in
  let graph = Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"JSON output file.")
  in
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
    Arg.(
      value & opt int 16
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Job-queue bound: requests beyond $(docv) waiting jobs are \
             rejected immediately with $(b,queue_full) instead of queueing \
             unboundedly. 0 refuses every job (control requests still work).")
  in
  let workers =
    Arg.(
      value
      & opt int (Lcp_engine.Pool.default_jobs ())
      & info [ "workers" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Worker domains draining the queue, each running one job at a \
                time, so $(docv) jobs run in parallel. Defaults to the \
                recommended domain count (one worker per core); must be in \
                1..%d."
               Lcp_serve.Server.max_workers))
  in
  let max_jobs =
    Arg.(
      value & opt int 0
      & info [ "max-jobs" ] ~docv:"N"
          ~doc:
            "Cap on the domain-pool width a request may ask for (its jobs \
             option; requests default to 1). 0 means the recommended domain \
             count.")
  in
  let max_n =
    Arg.(
      value & opt int 7
      & info [ "max-n" ] ~docv:"N" ~doc:"Cap on the sweep order clients may request.")
  in
  let max_deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-deadline-ms" ] ~docv:"MS"
          ~doc:"Cap (and default) for client deadlines, if any.")
  in
  let max_shards =
    Arg.(
      value
      & opt int Lcp_serve.Session.default_limits.Lcp_serve.Session.max_shards
      & info [ "max-shards" ] ~docv:"K"
          ~doc:
            "Cap on the partition width of coordinated sweep requests (and \
             on the shards a sweep-shard request may claim).")
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
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget from admission; an expired job answers \
                $(b,expired).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Stream the job's interim span/progress events to stderr.")
  in
  let n =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Sweep order.")
  in
  let strategy =
    Arg.(
      value & opt string "orderly"
      & info [ "strategy" ] ~docv:"STRATEGY" ~doc:"Sweep enumeration strategy.")
  in
  let early_exit =
    Arg.(value & flag & info [ "early-exit" ] ~doc:"Early-exit sweep.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Partition width for sweep requests: K >= 2 asks the daemon to \
             run the sweep as a coordinated K-shard job (capped by its \
             --max-shards).")
  in
  let max_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-n" ] ~docv:"N" ~doc:"Lint corpus order cap.")
  in
  let samples =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~docv:"K" ~doc:"Lint adversarial samples per class.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running lcp serve daemon and print the \
          response (e.g. lcp client check degree-one cycle:5, lcp client \
          sweep --n 5, echo '{...}' | lcp client --stdin). Exit code: 0 ok, 1 \
          violation or failure, 2 usage error.")
    Term.(
      const run_client $ socket_arg $ batch $ args $ jobs_arg $ heavy
      $ seed_arg $ deadline $ progress $ n $ strategy $ early_exit $ shards $ max_n $ samples)

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
    (match json_out with
    | Some path ->
        let oc = open_out path in
        output_string oc
          (Lcp_obs.Json.to_string_pretty (Lcp_race.Race.to_json report));
        output_char oc '\n';
        close_out oc
    | None -> ());
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
    Arg.(
      value
      & opt int Lcp_race.Race.default_schedules
      & info [ "schedules" ] ~docv:"K"
          ~doc:"Seeded schedules to run per scenario.")
  in
  let period =
    Arg.(
      value
      & opt int Lcp_race.Race.default_period
      & info [ "period" ] ~docv:"P"
          ~doc:
            "Roughly one perturbation pause per $(docv) sync operations per \
             thread; 0 disables pausing (tracing only).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the findings report to $(docv).")
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
   [failwith]s and cmdliner's own CLI errors both land on 2. *)
let guard body =
  try body () with
  | Failure msg ->
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
