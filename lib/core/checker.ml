open Lcp_graph
open Lcp_local

type failure = { instance : Instance.t; detail : string }
type verdict = Pass of { checked : int } | Fail of failure

let is_pass = function Pass _ -> true | Fail _ -> false

let pp_verdict ppf = function
  | Pass { checked } -> Format.fprintf ppf "pass (%d checks)" checked
  | Fail { detail; instance } ->
      Format.fprintf ppf "FAIL: %s@ on %a" detail Instance.pp instance

(* Fold with early exit on failure, counting checks. With a cfg whose
   [jobs > 1] the instances are checked on the engine's domain pool;
   the verdict is the first failure in instance order, so a Pass/Fail
   outcome and its witness are identical to the sequential fold. No
   cfg means strictly sequential: checks that share mutable state
   across instances (e.g. one RNG) rely on that. *)
let fold_verdict ?cfg instances f =
  let jobs = match cfg with Some c -> c.Lcp_obs.Run_cfg.jobs | None -> 1 in
  if jobs <= 1 then
    let rec go checked = function
      | [] -> Pass { checked }
      | inst :: rest -> (
          match f inst with
          | Ok more -> go (checked + more) rest
          | Error failure -> Fail failure)
    in
    go 0 instances
  else
    let metrics = Option.map (fun c -> c.Lcp_obs.Run_cfg.metrics) cfg in
    let results =
      Lcp_engine.Pool.map ?metrics ~jobs f (Array.of_list instances)
    in
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | Fail _, _ -> acc
        | Pass { checked }, Ok more -> Pass { checked = checked + more }
        | Pass _, Error failure -> Fail failure)
      (Pass { checked = 0 })
      results

(* [labelings_checked] is the engine-wide deterministic work counter:
   complete labelings inspected by exhaustive checks, partial labelings
   examined by certificate searches. Searches are sequential per
   instance and tallies are summed, so the total is independent of
   [jobs] (on passing runs — a Fail short-circuits differently). *)
let count_labelings cfg by =
  match cfg with
  | None -> ()
  | Some c -> Lcp_obs.Run_cfg.count c ~by "labelings_checked"

let completeness (suite : Decoder.suite) instances =
  fold_verdict instances (fun inst ->
      let g = inst.Instance.graph in
      if not (suite.Decoder.promise g && Coloring.is_bipartite g) then Ok 0
      else
        match suite.Decoder.prover inst with
        | None ->
            Error
              { instance = inst; detail = "honest prover failed on a yes-instance" }
        | Some lab ->
            let certified = Instance.with_labels inst lab in
            let verdicts = Decoder.run suite.Decoder.dec certified in
            let rejecting = ref [] in
            Array.iteri (fun v ok -> if not ok then rejecting := v :: !rejecting) verdicts;
            if !rejecting = [] then Ok 1
            else
              Error
                {
                  instance = certified;
                  detail =
                    Printf.sprintf "honest certificates rejected at node(s) %s"
                      (String.concat ","
                         (List.map string_of_int (List.rev !rejecting)));
                })

let soundness_exhaustive ?cfg (suite : Decoder.suite) instances =
  fold_verdict ?cfg instances (fun inst ->
      if Coloring.is_bipartite inst.Instance.graph then Ok 0
      else
        let alphabet = suite.Decoder.adversary_alphabet inst in
        let witness, inspected =
          Prover.search_accepted ?cfg suite.Decoder.dec ~alphabet inst
        in
        count_labelings cfg inspected;
        match witness with
        | None -> Ok 1
        | Some lab ->
            Error
              {
                instance = Instance.with_labels inst lab;
                detail = "non-bipartite instance unanimously accepted";
              })

let check_strong (suite : Decoder.suite) ~k inst lab =
  let candidate = Instance.with_labels inst lab in
  let sub, _ = Decoder.accepted_subgraph suite.Decoder.dec candidate in
  if Coloring.is_k_colorable sub ~k then None
  else
    Some
      {
        instance = candidate;
        detail =
          Printf.sprintf "accepting nodes induce a non-%d-colorable subgraph" k;
      }

(* Exhaustive strong soundness: every |Σ|^n labeling's verdict vector,
   one [accepts] query per node (an acceptance-table lookup on the
   production source instead of a full view-extraction pass), feeding
   the accepted-subgraph colorability check. The candidate instance is
   only materialized for the failure report.

   When the quotient yields a group (the decoder's verdicts are
   Aut-invariant and the graph is not rigid), the loop quotients the
   labeling space by Aut(G) with the certificate search's own cut: the
   walk of the prefix trie (Auto.prefix along the identity order, the
   order Labeling.iter_all uses), resumed from step to step, cuts
   every partial labeling with no orbit-minimal completion, and a
   complete labeling survives every step exactly when it is an orbit
   minimum. Each surviving minimum is
   counted with its orbit size |Aut| / |Stab(L)|, the stabilizer
   counted by a walk of the same trie. The weights over the minima
   partition the space, so on passing runs [checked] equals |Σ|^n
   exactly — bit-identical to the full loop. The failing property is
   Aut-closed, so the lex-first failing labeling is an orbit minimum
   and the quotient path reports the identical failure instance; a
   failing run's [checked] is the total orbit size of the minima up to
   and including it, which depends only on the group, not on how the
   cut is computed (it differs from the full loop's, the same caveat
   the jobs > 1 fold already carries). *)
let strong_soundness_with ?cfg ~source ~quotient (suite : Decoder.suite) ~k
    instances =
  fold_verdict ?cfg instances (fun inst ->
      let g = inst.Instance.graph in
      let n = Graph.order g in
      let dec = suite.Decoder.dec in
      let alphabet = suite.Decoder.adversary_alphabet inst in
      let auto = quotient dec inst in
      source.Prover.with_accepts dec ~alphabet inst (fun accepts ->
          let checked = ref 0 in
          let exception Failed of failure in
          let check_labeling ~weight lab rk =
            checked := !checked + weight;
            let accepting = ref [] in
            Array.iteri
              (fun v ok -> if ok then accepting := v :: !accepting)
              (Array.init n (accepts lab rk));
            let sub, _ = Graph.induced g (List.rev !accepting) in
            if not (Coloring.is_k_colorable sub ~k) then
              raise
                (Failed
                   {
                     instance = Instance.with_labels inst (Array.copy lab);
                     detail =
                       Printf.sprintf
                         "accepting nodes induce a non-%d-colorable subgraph" k;
                   })
          in
          (* identity order: the order Labeling.iter_all uses *)
          let order = Array.init n Fun.id in
          let iterate () =
            match auto with
            | None ->
                Labeling.iter_backtracking_ranked ~alphabet ~order g
                  ~prune:(fun _ _ _ -> false)
                  (check_labeling ~weight:1)
            | Some auto ->
                let size = Lcp_engine.Auto.size auto in
                let trie = Lcp_engine.Auto.prefix auto ~order in
                let w = Lcp_engine.Auto.walk trie in
                Labeling.iter_backtracking_ranked ~alphabet ~order g
                  ~prune:(fun i _ rk -> Lcp_engine.Auto.step w rk i)
                  (fun lab rk ->
                    check_labeling
                      ~weight:(size / Lcp_engine.Auto.stabilizer trie rk)
                      lab rk)
          in
          let result =
            try
              iterate ();
              Ok !checked
            with Failed failure -> Error failure
          in
          count_labelings cfg !checked;
          result))

let strong_soundness_exhaustive ?cfg suite ~k instances =
  strong_soundness_with ?cfg ~source:(Prover.tables ?cfg ())
    ~quotient:Prover.orbit_group suite ~k instances

let strong_soundness_random (suite : Decoder.suite) ~k ~trials rng instances =
  fold_verdict instances (fun inst ->
      let alphabet = suite.Decoder.adversary_alphabet inst in
      let n = Instance.order inst in
      let alphabet_arr = Array.of_list alphabet in
      let m = Array.length alphabet_arr in
      let honest = suite.Decoder.prover inst in
      let exception Failed of failure in
      let sample i =
        if i mod 2 = 0 || honest = None then
          Labeling.random rng ~alphabet inst.Instance.graph
        else begin
          (* mutate 1-2 positions of the honest labeling *)
          let lab = Array.copy (Option.get honest) in
          let flips = 1 + Random.State.int rng 2 in
          for _ = 1 to flips do
            lab.(Random.State.int rng n) <- alphabet_arr.(Random.State.int rng m)
          done;
          lab
        end
      in
      try
        for i = 1 to trials do
          match check_strong suite ~k inst (sample i) with
          | None -> ()
          | Some failure -> raise (Failed failure)
        done;
        Ok trials
      with Failed failure -> Error failure)

let invariance_check ~checker dec ~trials rng instances =
  fold_verdict instances (fun inst ->
      let algo = Decoder.as_local_algo dec in
      if checker algo inst ~trials rng then Ok trials
      else
        Error
          {
            instance = inst;
            detail = "decoder output changed under re-identification";
          })

(* ------------------------------------------------------------------ *)
(* engine sweeps: soundness over the whole n-node graph space          *)

let sweep_with ?cfg ?shard ?checkpoint ?on_chunk ?max_chunks
    ?(early_exit = false) ~source ~quotient (suite : Decoder.suite) ~n =
  let mode =
    if early_exit then Lcp_engine.Sweep.Search_counterexample
    else Lcp_engine.Sweep.Exhaustive
  in
  (* materialize the counter: a sweep that keeps zero classes must
     still serialize the same key set *)
  count_labelings cfg 0;
  let tables0, entries0 = Lcp_engine.Eval_cache.shape_stats () in
  (* the shape tables this run built and the entries it filled: gauges,
     because both depend on how many domains ran and what earlier runs
     in the process already filled *)
  let report_shapes () =
    match cfg with
    | None -> ()
    | Some c ->
        let tables, entries = Lcp_engine.Eval_cache.shape_stats () in
        Lcp_obs.Run_cfg.set_gauge c "eval_cache/shape_tables" (tables - tables0);
        Lcp_obs.Run_cfg.set_gauge c "eval_cache/shape_entries"
          (entries - entries0)
  in
  Fun.protect ~finally:report_shapes @@ fun () ->
  Lcp_engine.Sweep.run ?cfg ?shard ?checkpoint ?on_chunk ?max_chunks
    ~mode ~n
    ~keep:(fun g -> not (Coloring.is_bipartite g))
    ~check:(fun g ->
      let inst = Instance.make g in
      let alphabet = suite.Decoder.adversary_alphabet inst in
      let witness, inspected =
        Prover.search_with ?cfg ~source ~quotient suite.Decoder.dec ~alphabet
          inst
      in
      count_labelings cfg inspected;
      match witness with
      | None -> None
      | Some lab -> Some (Instance.with_labels inst lab))
    ()

let soundness_sweep_with ?cfg ~source ~quotient suite ~n =
  sweep_with ?cfg ~source ~quotient suite ~n

let soundness_sweep ?cfg ?shard ?checkpoint ?on_chunk ?max_chunks ?early_exit
    suite ~n =
  sweep_with ?cfg ?shard ?checkpoint ?on_chunk ?max_chunks ?early_exit
    ~source:(Prover.tables ?cfg ()) ~quotient:Prover.orbit_group suite ~n

let verdict_of_sweep (s : Instance.t Lcp_engine.Sweep.summary) =
  match s.Lcp_engine.Sweep.counterexample with
  | None ->
      Pass { checked = s.Lcp_engine.Sweep.counters.Lcp_engine.Sweep.checked }
  | Some (_, inst) ->
      Fail
        {
          instance = inst;
          detail = "non-bipartite instance unanimously accepted";
        }

let anonymity dec ~trials rng instances =
  invariance_check ~checker:Local_algo.is_anonymous_on dec ~trials rng instances

let order_invariance dec ~trials rng instances =
  invariance_check ~checker:Local_algo.is_order_invariant_on dec ~trials rng instances
