(* PR-9 orbit pruning: the automorphism-quotient certificate search
   validated against the unquotiented full-space oracle
   (Oracle ~quotient:false) exactly as the acceptance tables were in
   PR 5 — witnesses bit-identical, tallies never larger,
   strong-soundness counts exact.

   The expensive n = 6 cross-check only runs when LCP_HEAVY is set. *)

open Lcp_graph
open Lcp_local
open Lcp
open Helpers
module Run_cfg = Lcp_obs.Run_cfg
module Metrics_obs = Lcp_obs.Metrics
module Auto = Lcp_engine.Auto
module Oracle = Lcp_oracle.Oracle

let heavy_enabled = Sys.getenv_opt "LCP_HEAVY" <> None
let seq_cfg () = Run_cfg.make ~jobs:1 ()

(* ------------------------------------------------------------------ *)
(* search_accepted: pruned vs direct, all registry decoders            *)

(* Same corpus walk as test_eval_cache's cross_check_registry, but the
   A/B axis is the orbit quotient instead of the verdict source:
   witnesses must be
   bit-identical, the pruned tally never larger, and equal whenever
   the decoder is ineligible or the graph rigid. *)
let cross_check_registry ~max_n ~budget () =
  let corpus =
    List.concat_map
      (fun n -> Enumerate.connected_up_to_iso n)
      (List.init max_n (fun i -> i + 1))
  in
  List.iter
    (fun (e : Registry.entry) ->
      let suite = e.Registry.suite in
      let pruned_somewhere = ref false in
      List.iter
        (fun g ->
          let inst = Instance.make g in
          let alphabet = suite.Decoder.adversary_alphabet inst in
          if Labeling.count ~alphabet g <= budget then begin
            let search run =
              let cfg = seq_cfg () in
              let w, t = run ~cfg suite.Decoder.dec ~alphabet inst in
              (w, t, Metrics_obs.counter cfg.Run_cfg.metrics "orbit_pruned_branches")
            in
            let on_witness, on_tally, on_cuts =
              search (fun ~cfg -> Prover.search_accepted ~cfg)
            in
            let off_witness, off_tally, off_cuts =
              search (fun ~cfg ->
                  Oracle.search_accepted ~cfg ~verdicts:Oracle.Tables
                    ~quotient:false)
            in
            check_bool
              (Printf.sprintf "%s: witness identical (n=%d)" e.Registry.key
                 (Graph.order g))
              true
              (on_witness = off_witness);
            check_bool
              (Printf.sprintf "%s: pruned tally never larger (n=%d)"
                 e.Registry.key (Graph.order g))
              true (on_tally <= off_tally);
            check_int
              (Printf.sprintf "%s: pruning off cuts nothing (n=%d)"
                 e.Registry.key (Graph.order g))
              0 off_cuts;
            if on_cuts > 0 then pruned_somewhere := true;
            let eligible = Prover.orbit_eligible suite.Decoder.dec inst in
            let rigid = Auto.is_trivial (Auto.of_graph g) in
            if (not eligible) || rigid then begin
              check_int
                (Printf.sprintf "%s: ineligible/rigid tally equal (n=%d)"
                   e.Registry.key (Graph.order g))
                off_tally on_tally;
              check_int
                (Printf.sprintf "%s: ineligible/rigid cuts nothing (n=%d)"
                   e.Registry.key (Graph.order g))
                0 on_cuts
            end
          end)
        corpus;
      (* every eligible decoder meets a symmetric graph in the corpus *)
      let some_inst = Instance.make (Builders.cycle 4) in
      if Prover.orbit_eligible suite.Decoder.dec some_inst then
        check_bool
          (Printf.sprintf "%s actually pruned somewhere" e.Registry.key)
          true !pruned_somewhere)
    Registry.all

let test_registry_small_corpus () = cross_check_registry ~max_n:5 ~budget:20_000 ()

let test_registry_heavy_corpus () =
  if not heavy_enabled then ()
  else cross_check_registry ~max_n:6 ~budget:400_000 ()

(* iter/count_accepted enumerate the full accepted set and must never
   be quotiented: the count equals a brute-force count over the whole
   space *)
let test_count_accepted_never_pruned () =
  List.iter
    (fun g ->
      let inst = Instance.make g in
      let suite = D_degree_one.suite in
      let alphabet = suite.Decoder.adversary_alphabet inst in
      check_int
        (Printf.sprintf "count_accepted = full-space count on %s"
           (Graph.to_string g))
        (Oracle.count_accepted suite.Decoder.dec ~alphabet inst)
        (Prover.count_accepted ~cfg:(seq_cfg ()) suite.Decoder.dec ~alphabet
           inst))
    [ Builders.cycle 4; Builders.cycle 5; Builders.complete 4 ]

(* ------------------------------------------------------------------ *)
(* strong soundness: quotient vs direct                                *)

let run_strong ~quotient suite ~k instances =
  let cfg = seq_cfg () in
  let v =
    if quotient then Checker.strong_soundness_exhaustive ~cfg suite ~k instances
    else
      Oracle.strong_soundness_exhaustive ~cfg ~verdicts:Oracle.Tables
        ~quotient:false suite ~k instances
  in
  (v, Metrics_obs.counter cfg.Run_cfg.metrics "labelings_checked")

(* on passing runs the orbit weights must partition the space: checked
   = |Sigma|^n exactly, bit-identical to the direct loop, even on the
   most symmetric graphs we have *)
let test_strong_soundness_exact_count () =
  List.iter
    (fun g ->
      let inst = Instance.make g in
      let suite = D_degree_one.suite in
      let alphabet = suite.Decoder.adversary_alphabet inst in
      let space = Labeling.count ~alphabet g in
      let on_v, on_c = run_strong ~quotient:true suite ~k:2 [ inst ] in
      let off_v, off_c = run_strong ~quotient:false suite ~k:2 [ inst ] in
      check_bool "verdict identical" (Checker.is_pass off_v)
        (Checker.is_pass on_v);
      check_int
        (Printf.sprintf "labelings_checked identical on %s" (Graph.to_string g))
        off_c on_c;
      if Checker.is_pass on_v then
        check_int
          (Printf.sprintf "checked = |alphabet|^n on %s" (Graph.to_string g))
          space on_c)
    [
      Builders.cycle 5;
      Builders.cycle 6;
      Builders.complete 4;
      Builders.complete_bipartite 2 3;
      Builders.star 4;
    ]

(* a failing run must surface the identical failure instance on both
   paths: trivial2's everywhere-accepting decoder makes any non
   1-colorable graph fail strong soundness at k = 1, and C6 has a big
   automorphism group to quotient by *)
let test_failing_case_identical () =
  let inst = Instance.make (Builders.cycle 6) in
  let suite = D_trivial.suite ~k:2 in
  let fail_of = function
    | Checker.Pass _ -> None
    | Checker.Fail f -> Some (f.Checker.instance, f.Checker.detail)
  in
  let on_v, _ = run_strong ~quotient:true suite ~k:1 [ inst ] in
  let off_v, _ = run_strong ~quotient:false suite ~k:1 [ inst ] in
  check_bool "both paths fail" true
    ((not (Checker.is_pass on_v)) && not (Checker.is_pass off_v));
  check_bool "failure instances identical" true (fail_of on_v = fail_of off_v)

(* quotient path composes with both verdict sources *)
let test_strong_soundness_crossed () =
  let inst = Instance.make (Builders.cycle 5) in
  let suite = D_degree_one.suite in
  let cell ~quotient ~verdicts =
    let cfg = seq_cfg () in
    let v =
      Oracle.strong_soundness_exhaustive ~cfg ~verdicts ~quotient suite ~k:2
        [ inst ]
    in
    (v, Metrics_obs.counter cfg.Run_cfg.metrics "labelings_checked")
  in
  let base = cell ~quotient:false ~verdicts:Oracle.Direct in
  List.iter
    (fun (quotient, verdicts) ->
      let v, c = cell ~quotient ~verdicts in
      check_bool "verdict matches baseline" (Checker.is_pass (fst base))
        (Checker.is_pass v);
      check_int "checked matches baseline" (snd base) c)
    [ (true, Oracle.Tables); (true, Oracle.Direct); (false, Oracle.Tables) ]

let suite =
  [
    case "registry cross-check, n <= 5 corpus" test_registry_small_corpus;
    case "count_accepted never orbit-pruned" test_count_accepted_never_pruned;
    case "strong soundness: quotient = direct, exact counts"
      test_strong_soundness_exact_count;
    case "strong soundness: failing instances identical"
      test_failing_case_identical;
    case "strong soundness: orbit x eval-cache crossed"
      test_strong_soundness_crossed;
    slow_case "registry cross-check, n = 6 (LCP_HEAVY)"
      test_registry_heavy_corpus;
  ]
