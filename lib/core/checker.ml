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
  let jobs = match cfg with Some c -> c.Run_cfg.jobs | None -> 1 in
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
    let metrics = Option.map (fun c -> c.Run_cfg.metrics) cfg in
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
  | Some c -> Run_cfg.count c ~by "labelings_checked"

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
   labeling space by Aut(G): symmetry-breaking constraints
   (Auto.lex_constraints along the identity order — the same order
   Labeling.iter_all uses) cut most non-orbit-minimal labelings
   during backtracking, an exact lex-minimality test against the full
   group filters the survivors, and each true minimum is counted with
   its orbit size |Aut| / |Stab(L)|. The weights over the exact
   minima partition the space, so on passing runs [checked] equals
   |Σ|^n exactly — bit-identical to the full loop. The failing
   property is Aut-closed, so the lex-first failing labeling is an
   orbit minimum and the quotient path reports the identical failure
   instance; only a failing run's [checked] differs (the same caveat
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
          let check_labeling ~weight lab =
            checked := !checked + weight;
            let accepting = ref [] in
            Array.iteri
              (fun v ok -> if ok then accepting := v :: !accepting)
              (Array.init n (accepts lab));
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
          let iterate () =
            match auto with
            | None ->
                Labeling.iter_all ~alphabet g (fun lab ->
                    check_labeling ~weight:1 lab)
            | Some auto ->
                let perms = Lcp_engine.Auto.perms auto in
                let asize = Array.length perms in
                let cs =
                  Lcp_engine.Auto.lex_constraints auto
                    ~order:(Array.init n Fun.id)
                in
                let rank : (string, int) Hashtbl.t = Hashtbl.create 8 in
                List.iteri
                  (fun i s ->
                    if not (Hashtbl.mem rank s) then Hashtbl.add rank s i)
                  alphabet;
                let rk = Array.make n 0 in
                Labeling.iter_backtracking ~alphabet g
                  ~prune:(fun v lab ->
                    match cs.(v) with
                    | [] -> false
                    | es ->
                        let rv = Hashtbl.find rank lab.(v) in
                        List.exists
                          (fun e -> rv < Hashtbl.find rank lab.(e))
                          es)
                  (fun lab ->
                    (* exact minimality: the chain constraints leave a
                       superset of the orbit minima, so verify L <= L.p
                       for every p and count the stabilizer on the way *)
                    for v = 0 to n - 1 do
                      rk.(v) <- Hashtbl.find rank lab.(v)
                    done;
                    let stab = ref 0 in
                    let minimal = ref true in
                    Array.iter
                      (fun p ->
                        if !minimal then begin
                          let c = ref 0 in
                          let v = ref 0 in
                          while !c = 0 && !v < n do
                            c := compare rk.(!v) rk.(p.(!v));
                            incr v
                          done;
                          if !c = 0 then incr stab
                          else if !c > 0 then minimal := false
                        end)
                      perms;
                    if !minimal then
                      check_labeling ~weight:(asize / !stab) lab)
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

let soundness_sweep_with ?cfg ?strategy ?shard ?checkpoint ?on_chunk
    ?max_chunks ?(early_exit = false) ~source ~quotient (suite : Decoder.suite)
    ~n =
  let mode =
    if early_exit then Lcp_engine.Sweep.Search_counterexample
    else Lcp_engine.Sweep.Exhaustive
  in
  (* materialize the counter: a sweep that keeps zero classes must
     still serialize the same key set *)
  count_labelings cfg 0;
  Lcp_engine.Sweep.run ?cfg ?strategy ?shard ?checkpoint ?on_chunk ?max_chunks
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

let soundness_sweep ?cfg ?strategy ?shard ?checkpoint ?on_chunk ?max_chunks
    ?early_exit suite ~n =
  soundness_sweep_with ?cfg ?strategy ?shard ?checkpoint ?on_chunk ?max_chunks
    ?early_exit ~source:(Prover.tables ?cfg ()) ~quotient:Prover.orbit_group
    suite ~n

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
