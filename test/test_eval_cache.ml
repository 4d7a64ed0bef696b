(* PR-5 acceptance tables: the memoized certificate-search path
   validated graph-for-graph against the direct view-extraction oracle
   (Oracle.Direct), plus the table's own invariants.

   The expensive n = 6 / n = 7 cross-checks only run when LCP_HEAVY is
   set: `LCP_HEAVY=1 dune runtest`. *)

open Lcp_graph
open Lcp_local
open Lcp
open Helpers
module Run_cfg = Lcp_obs.Run_cfg
module Metrics_obs = Lcp_obs.Metrics
module Eval_cache = Lcp_engine.Eval_cache
module Oracle = Lcp_oracle.Oracle

let heavy_enabled = Sys.getenv_opt "LCP_HEAVY" <> None
let seq_cfg () = Run_cfg.make ~jobs:1 ()

(* ------------------------------------------------------------------ *)
(* table invariants                                                    *)

let test_verdicts_match_decoder_run () =
  (* every one of the 5^4 complete labelings of two 4-node shapes:
     the table's verdict vector is Decoder.run's, bit for bit *)
  let dec = D_degree_one.decoder in
  let alphabet = D_degree_one.alphabet in
  List.iter
    (fun g ->
      let inst = Instance.make g in
      let ec =
        Eval_cache.create ~radius:dec.Decoder.radius
          ~accepts:dec.Decoder.accepts ~alphabet inst
      in
      Labeling.iter_all ~alphabet g (fun lab ->
          let direct = Decoder.run dec (Instance.with_labels inst lab) in
          Alcotest.(check (array bool))
            "memoized = direct" direct
            (Eval_cache.verdicts ec lab)))
    [ Builders.path 4; Builders.cycle 4 ]

let test_stats_accounting () =
  let dec = D_degree_one.decoder in
  let alphabet = D_degree_one.alphabet in
  let g = Builders.cycle 4 in
  let inst = Instance.make g in
  let ec =
    Eval_cache.create ~radius:dec.Decoder.radius ~accepts:dec.Decoder.accepts
      ~alphabet inst
  in
  check_int "fresh table" 0 (fst (Eval_cache.stats ec) + snd (Eval_cache.stats ec));
  let queries = ref 0 in
  Labeling.iter_all ~alphabet g (fun lab ->
      ignore (Eval_cache.verdicts ec lab);
      queries := !queries + Graph.order g);
  let hits, misses = Eval_cache.stats ec in
  check_int "every query is a hit or a miss" !queries (hits + misses);
  (* a radius-1 ball on C4 has 3 nodes: at most 5^3 distinct keys *)
  check_bool "misses bounded by the key space" true
    (misses <= Graph.order g * 125);
  (* replaying the same queries adds only hits *)
  Labeling.iter_all ~alphabet g (fun lab ->
      ignore (Eval_cache.verdicts ec lab));
  let _, misses' = Eval_cache.stats ec in
  check_int "replay decodes nothing new" misses misses'

let test_dense_limit_variants_agree () =
  (* force the hashtable fallback with dense_limit = 0 and compare
     against the dense table verdict for verdict equality *)
  let dec = D_degree_one.decoder in
  let alphabet = D_degree_one.alphabet in
  let g = Builders.pendant (Builders.cycle 3) 0 in
  let inst = Instance.make g in
  let mk limit =
    Eval_cache.create ~dense_limit:limit ~radius:dec.Decoder.radius
      ~accepts:dec.Decoder.accepts ~alphabet inst
  in
  let dense = mk (1 lsl 16) and hashed = mk 0 in
  Labeling.iter_all ~alphabet g (fun lab ->
      Alcotest.(check (array bool))
        "dense = hashed"
        (Eval_cache.verdicts dense lab)
        (Eval_cache.verdicts hashed lab))

let test_out_of_alphabet_bypass () =
  (* the search's "?" placeholder outside the ball is fine; an
     off-alphabet label inside the ball is answered but not cached *)
  let dec = D_degree_one.decoder in
  let alphabet = D_degree_one.alphabet in
  let g = Builders.path 3 in
  let inst = Instance.make g in
  let ec =
    Eval_cache.create ~radius:dec.Decoder.radius ~accepts:dec.Decoder.accepts
      ~alphabet inst
  in
  let lab = [| "junk-symbol"; "junk-symbol"; "junk-symbol" |] in
  let direct = Decoder.run dec (Instance.with_labels inst lab) in
  Alcotest.(check (array bool))
    "bypass answers correctly" direct (Eval_cache.verdicts ec lab);
  let hits, misses = Eval_cache.stats ec in
  check_int "bypass queries count neither hits nor misses" 0 (hits + misses)

(* ------------------------------------------------------------------ *)
(* memoized vs direct, all registry decoders, exhaustive small corpus  *)

(* Cross-check search_accepted (witness AND tally) on every connected
   iso class with n <= max_n, for every shipped decoder, skipping
   (decoder, class) pairs whose full labeling space exceeds [budget] —
   the saturating Labeling.count makes the guard total even for the
   id-indexed alphabets (spanning, watermelon) whose spaces overflow. *)
let cross_check_registry ~max_n ~budget () =
  let corpus =
    List.concat_map
      (fun n -> Enumerate.connected_up_to_iso n)
      (List.init max_n (fun i -> i + 1))
  in
  List.iter
    (fun (e : Registry.entry) ->
      let suite = e.Registry.suite in
      let covered = ref 0 in
      List.iter
        (fun g ->
          let inst = Instance.make g in
          let alphabet = suite.Decoder.adversary_alphabet inst in
          if Labeling.count ~alphabet g <= budget then begin
            incr covered;
            let memo_witness, memo_tally =
              Prover.search_accepted ~cfg:(seq_cfg ()) suite.Decoder.dec
                ~alphabet inst
            in
            let direct_witness, direct_tally =
              Oracle.search_accepted ~cfg:(seq_cfg ()) ~verdicts:Oracle.Direct
                ~quotient:true suite.Decoder.dec ~alphabet inst
            in
            check_bool
              (Printf.sprintf "%s: witness identical (n=%d)" e.Registry.key
                 (Graph.order g))
              true
              (memo_witness = direct_witness);
            check_int
              (Printf.sprintf "%s: tally identical (n=%d)" e.Registry.key
                 (Graph.order g))
              direct_tally memo_tally
          end)
        corpus;
      check_bool
        (Printf.sprintf "%s cross-checked on at least one class" e.Registry.key)
        true (!covered > 0))
    Registry.all

let test_registry_small_corpus () = cross_check_registry ~max_n:5 ~budget:20_000 ()

let test_registry_heavy_corpus () =
  if not heavy_enabled then ()
  else cross_check_registry ~max_n:6 ~budget:400_000 ()

(* ------------------------------------------------------------------ *)
(* checker paths                                                       *)

let test_strong_soundness_paths_agree () =
  let instances =
    [
      Instance.make (Builders.pendant (Builders.cycle 3) 0);
      Instance.make (Builders.path 4);
    ]
  in
  let run check =
    let cfg = seq_cfg () in
    let v = check ~cfg D_degree_one.suite ~k:2 instances in
    (Checker.is_pass v, Metrics_obs.counter cfg.Run_cfg.metrics "labelings_checked")
  in
  let memo_pass, memo_checked =
    run (fun ~cfg -> Checker.strong_soundness_exhaustive ~cfg)
  in
  let direct_pass, direct_checked =
    run (fun ~cfg ->
        Oracle.strong_soundness_exhaustive ~cfg ~verdicts:Oracle.Direct
          ~quotient:true)
  in
  check_bool "verdict identical" memo_pass direct_pass;
  check_int "labelings_checked identical" direct_checked memo_checked

(* jobs=1 vs jobs=4, crossed with tables vs direct decoding: the whole
   n=5 soundness sweep must report the same labelings_checked in all
   four cells, and the eval counters must be jobs-invariant per
   verdict source. *)
let test_sweep_counters_crossed () =
  let counters jobs sweep =
    Lcp_engine.Sweep.clear_cache ();
    let cfg = Run_cfg.make ~jobs () in
    ignore (sweep cfg);
    let c name = Metrics_obs.counter cfg.Run_cfg.metrics name in
    (c "labelings_checked", c "eval_cache_hits", c "eval_cache_misses")
  in
  let memoized cfg = Checker.soundness_sweep ~cfg D_degree_one.suite ~n:5 in
  let direct cfg =
    Oracle.soundness_sweep ~cfg ~verdicts:Oracle.Direct ~quotient:true
      D_degree_one.suite ~n:5
  in
  let seq_on = counters 1 memoized in
  let par_on = counters 4 memoized in
  let seq_off = counters 1 direct in
  let par_off = counters 4 direct in
  check_bool "cache on: jobs-invariant" true (seq_on = par_on);
  check_bool "cache off: jobs-invariant" true (seq_off = par_off);
  let checked (c, _, _) = c in
  check_int "labelings_checked independent of the cache" (checked seq_off)
    (checked seq_on);
  let hits (_, h, _) = h and misses (_, _, m) = m in
  check_bool "cache on: table actually used" true (hits seq_on > 0);
  check_bool "hits + misses cover some queries" true (misses seq_on > 0)

(* ------------------------------------------------------------------ *)
(* heavy sweeps: n = 6 per-class equality, n = 7 memoized verdict      *)

let test_n6_sweep_paths_agree () =
  if not heavy_enabled then ()
  else begin
    let sweep run =
      Lcp_engine.Sweep.clear_cache ();
      let cfg = seq_cfg () in
      let s = run cfg in
      ( Checker.verdict_of_sweep s,
        Metrics_obs.counter cfg.Run_cfg.metrics "labelings_checked" )
    in
    let memo_v, memo_c =
      sweep (fun cfg -> Checker.soundness_sweep ~cfg D_degree_one.suite ~n:6)
    in
    let direct_v, direct_c =
      sweep (fun cfg ->
          Oracle.soundness_sweep ~cfg ~verdicts:Oracle.Direct ~quotient:true
            D_degree_one.suite ~n:6)
    in
    check_bool "n=6 verdicts identical" true (memo_v = direct_v);
    check_int "n=6 labelings_checked identical" direct_c memo_c;
    check_bool "n=6 sweep passes" true (Checker.is_pass memo_v)
  end

let test_n7_memoized_sweep_passes () =
  if not heavy_enabled then ()
  else begin
    Lcp_engine.Sweep.clear_cache ();
    let cfg = Run_cfg.make () in
    let s = Checker.soundness_sweep ~cfg D_degree_one.suite ~n:7 in
    check_bool "n=7 memoized sweep passes" true
      (Checker.is_pass (Checker.verdict_of_sweep s))
  end

let suite =
  [
    case "verdicts = Decoder.run on the full labeling space"
      test_verdicts_match_decoder_run;
    case "hit/miss accounting" test_stats_accounting;
    case "dense and hashed stores agree" test_dense_limit_variants_agree;
    case "out-of-alphabet labels bypass the table" test_out_of_alphabet_bypass;
    case "registry cross-check, n <= 5 corpus" test_registry_small_corpus;
    case "strong soundness: memoized = direct" test_strong_soundness_paths_agree;
    slow_case "sweep counters, jobs x eval-cache crossed"
      test_sweep_counters_crossed;
    slow_case "registry cross-check, n = 6 (LCP_HEAVY)"
      test_registry_heavy_corpus;
    slow_case "n=6 sweep memoized = direct (LCP_HEAVY)"
      test_n6_sweep_paths_agree;
    slow_case "n=7 memoized sweep passes (LCP_HEAVY)"
      test_n7_memoized_sweep_passes;
  ]
