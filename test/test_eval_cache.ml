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
module Enumerate = Lcp_oracle.Enumerate

let heavy_enabled = Sys.getenv_opt "LCP_HEAVY" <> None
let seq_cfg () = Run_cfg.make ~jobs:1 ()
let degree_one = D_degree_one.decoder
let edge_bit = D_edge_bit.decoder

(* ------------------------------------------------------------------ *)
(* table invariants                                                    *)

(* A fresh private cache: with sharing off, [acquire] builds one, and
   [lease_stats] counts from its creation. *)
let fresh ?shapes ~radius ~accepts ~alphabet inst =
  Eval_cache.acquire ~key:(lazy "") ?shapes ~radius ~accepts ~alphabet inst

(* The table's verdict vector under a complete labeling over
   [alphabet], one ranked query per node. *)
let verdicts l ~alphabet lab =
  let rank = Labeling.ranks alphabet in
  let ranks = Array.map (Hashtbl.find rank) lab in
  Array.init (Array.length lab)
    (Eval_cache.accepts_ranked (Eval_cache.lease_cache l) lab ranks)

let test_verdicts_match_decoder_run () =
  (* every complete labeling: the table's verdict vector is
     Decoder.run's, bit for bit. degree-one on two 4-node shapes
     (5^4 labelings each), with and without the shape level; edge-bit
     is radius 2 and reads ports, so it has no shape level and every
     miss decodes, the first one extracting the node's skeleton *)
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun (dec, alphabet, shapes, inst) ->
      let decodes = ref 0 in
      let accepts view =
        incr decodes;
        dec.Decoder.accepts view
      in
      let ec =
        fresh ~shapes ~radius:dec.Decoder.radius ~accepts ~alphabet inst
      in
      Labeling.iter_all ~alphabet inst.Instance.graph (fun lab ->
          let direct = Decoder.run dec (Instance.with_labels inst lab) in
          Alcotest.(check (array bool))
            (dec.Decoder.name ^ ": memoized = direct") direct
            (verdicts ec ~alphabet lab));
      let _, misses = Eval_cache.lease_stats ec in
      if not shapes then
        check_int (dec.Decoder.name ^ ": every miss decodes") misses !decodes)
    [
      (degree_one, D_degree_one.alphabet, false, Instance.make (Builders.path 4));
      (degree_one, D_degree_one.alphabet, true, Instance.make (Builders.cycle 4));
      (edge_bit, D_edge_bit.alphabet, false, Instance.random rng (Builders.cycle 6));
      (edge_bit, D_edge_bit.alphabet, false, Instance.random rng (Builders.path 5));
    ]

let test_stats_accounting () =
  let dec = D_degree_one.decoder in
  let alphabet = D_degree_one.alphabet in
  let g = Builders.cycle 4 in
  let inst = Instance.make g in
  let ec =
    fresh ~radius:dec.Decoder.radius ~accepts:dec.Decoder.accepts ~alphabet inst
  in
  check_int "fresh table" 0
    (fst (Eval_cache.lease_stats ec) + snd (Eval_cache.lease_stats ec));
  let queries = ref 0 in
  Labeling.iter_all ~alphabet g (fun lab ->
      ignore (verdicts ec ~alphabet lab);
      queries := !queries + Graph.order g);
  let hits, misses = Eval_cache.lease_stats ec in
  check_int "every query is a hit or a miss" !queries (hits + misses);
  (* a radius-1 ball on C4 has 3 nodes: at most 5^3 distinct keys *)
  check_bool "misses bounded by the key space" true
    (misses <= Graph.order g * 125);
  (* replaying the same queries adds only hits *)
  Labeling.iter_all ~alphabet g (fun lab ->
      ignore (verdicts ec ~alphabet lab));
  let _, misses' = Eval_cache.lease_stats ec in
  check_int "replay decodes nothing new" misses misses'

(* The center of star:8 sees all 9 nodes, so degree-one's 5 symbols
   give it 5^9 keys, past the 2^18 a dense table holds: its verdicts
   live in the Hashed store, while each leaf's 5^2 keys sit in a Dense
   one. Both stores must answer as direct decoding does, on seeded
   labelings and on mutations of the honest certificate (whose center
   accepts), when first asked and again when the stores answer. *)
let test_dense_limit_variants_agree () =
  let suite = D_degree_one.suite in
  let dec = suite.Decoder.dec in
  let alphabet = D_degree_one.alphabet in
  let g = Builders.star 8 in
  let inst = Instance.make g in
  let n = Graph.order g in
  let ec =
    fresh ~radius:dec.Decoder.radius ~accepts:dec.Decoder.accepts ~alphabet inst
  in
  let honest = Option.get (suite.Decoder.prover inst) in
  let rng = Random.State.make [| 26 |] in
  let syms = Array.of_list alphabet in
  let mutate () =
    let lab = Array.copy honest in
    for _ = 1 to 1 + Random.State.int rng 2 do
      lab.(Random.State.int rng n) <- syms.(Random.State.int rng (Array.length syms))
    done;
    lab
  in
  let labs =
    honest
    :: List.init 400 (fun i ->
           if i mod 2 = 0 then Labeling.random rng ~alphabet g else mutate ())
  in
  let check lab =
    Alcotest.(check (array bool))
      "cache = direct"
      (Decoder.run dec (Instance.with_labels inst lab))
      (verdicts ec ~alphabet lab)
  in
  check_bool "the center accepts the honest labeling" true
    (verdicts ec ~alphabet honest).(0);
  List.iter check labs;
  let hits, _ = Eval_cache.lease_stats ec in
  List.iter check labs;
  let hits', _ = Eval_cache.lease_stats ec in
  check_bool "the replay is answered from the stores" true
    (hits' - hits = List.length labs * n)

(* The search queries a node as soon as its ball is assigned, while
   every other slot still holds the "?" placeholder and a stale rank.
   Per node, on a fresh cache: the query under such a partial labeling
   (placeholder outside the ball, rank -1 there) decodes the miss and
   answers as direct decoding of a complete labeling that agrees on
   the ball; the complete labeling's query then hits with the same
   verdict. Degree-one with and without the shape level, and the
   radius-2 edge-bit decoder, whose balls leave nodes of C8 out. *)
let test_outside_ball_ignored () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun (dec, alphabet, shapes, inst) ->
      let what = Printf.sprintf "%s, shapes %b" dec.Decoder.name shapes in
      let n = Instance.order inst in
      let rank = Labeling.ranks alphabet in
      for _ = 1 to 20 do
        let lab = Labeling.random rng ~alphabet inst.Instance.graph in
        let direct = Decoder.run dec (Instance.with_labels inst lab) in
        let ec =
          fresh ~shapes ~radius:dec.Decoder.radius
            ~accepts:dec.Decoder.accepts ~alphabet inst
        in
        let c = Eval_cache.lease_cache ec in
        for v = 0 to n - 1 do
          let what = Printf.sprintf "%s, node %d" what v in
          let ball = (View.layout inst ~r:dec.Decoder.radius v).View.ball in
          let partial = Array.make n "?" and ranks = Array.make n (-1) in
          Array.iter
            (fun w ->
              partial.(w) <- lab.(w);
              ranks.(w) <- Hashtbl.find rank lab.(w))
            ball;
          let _, misses = Eval_cache.lease_stats ec in
          check_bool (what ^ ": partial = direct") direct.(v)
            (Eval_cache.accepts_ranked c partial ranks v);
          let hits, misses' = Eval_cache.lease_stats ec in
          check_int (what ^ ": the partial query decodes") (misses + 1) misses';
          let full = Array.map (Hashtbl.find rank) lab in
          check_bool (what ^ ": complete = direct") direct.(v)
            (Eval_cache.accepts_ranked c lab full v);
          check_int (what ^ ": the complete query hits") (hits + 1)
            (fst (Eval_cache.lease_stats ec))
        done
      done)
    [
      (degree_one, D_degree_one.alphabet, false, Instance.make (Builders.path 5));
      (degree_one, D_degree_one.alphabet, true, Instance.make (Builders.path 5));
      (edge_bit, D_edge_bit.alphabet, false, Instance.random rng (Builders.cycle 8));
    ]

(* ------------------------------------------------------------------ *)
(* the ball layout against an independent reference                    *)

(* The ball of [v] from whole-graph BFS distances, sorted by
   (distance, id), and the visible edges (an endpoint at distance at
   most r - 1) as ascending local pairs. *)
let reference_layout (inst : Instance.t) ~r v =
  let g = inst.Instance.graph in
  let d = Metrics.bfs_dist g v in
  let id = Ident.id inst.Instance.ids in
  let ball =
    List.filter (fun w -> d.(w) <= r) (Graph.nodes g)
    |> List.sort (fun a b -> compare (d.(a), id a) (d.(b), id b))
    |> Array.of_list
  in
  let local = Hashtbl.create 16 in
  Array.iteri (fun u w -> Hashtbl.replace local w u) ball;
  let edges =
    List.filter_map
      (fun (a, b) ->
        if min d.(a) d.(b) > r - 1 then None
        else
          let la = Hashtbl.find local a and lb = Hashtbl.find local b in
          Some (min la lb, max la lb))
      (Graph.edges g)
    |> List.sort compare
  in
  (ball, Array.map (fun w -> d.(w)) ball, edges)

(* The shape key's edge part, over ascending local pairs. *)
let shape_mask edges =
  List.fold_left (fun m (a, b) -> m lor (1 lsl ((b * (b - 1) / 2) + a))) 0 edges

(* Every node of [inst] at radius [r]: the layout with and without a
   scratch array and the extracted view mapped back to nodes agree with
   the reference. *)
let check_layouts ~what (inst : Instance.t) ~r =
  let n = Instance.order inst in
  let scratch = Array.make n (-1) in
  for v = 0 to n - 1 do
    let what = Printf.sprintf "%s, r=%d, node %d" what r v in
    let ball, dist, edges = reference_layout inst ~r v in
    List.iter
      (fun (how, (lay : View.layout)) ->
        check_bool (what ^ ": " ^ how ^ " ball") true (lay.View.ball = ball);
        check_bool (what ^ ": " ^ how ^ " dist") true
          (lay.View.ball_dist = dist);
        check_bool (what ^ ": " ^ how ^ " edges") true
          (List.sort compare lay.View.edges = edges))
      [
        ("layout", View.layout inst ~r v);
        ("scratch layout", View.layout ~scratch inst ~r v);
      ];
    check_bool (what ^ ": scratch left clean") true
      (Array.for_all (fun x -> x = -1) scratch);
    let view = View.extract inst ~r v in
    let nodes =
      Array.map
        (fun i -> Option.get (Ident.node_of_id inst.Instance.ids i))
        view.View.ids
    in
    check_bool (what ^ ": view order") true (nodes = ball);
    check_bool (what ^ ": view dist") true (view.View.dist = dist);
    (* every visible edge end's port against a scan of its instance
       port row *)
    Array.iteri
      (fun u row ->
        check_int (what ^ ": port row length")
          (Graph.degree view.View.graph u)
          (Array.length row);
        Array.iteri
          (fun i p ->
            let w = ball.(Graph.nth_neighbor view.View.graph u i) in
            let expect = Port.port_of inst.Instance.ports ball.(u) w in
            if p <> expect then
              Alcotest.failf "%s: port of %d toward %d is %d, row scan %d" what
                ball.(u) w p expect)
          row)
      view.View.ports;
    (* shapes exist only for views of at most Canon.max_order nodes,
       whose edge masks fit an int *)
    if Array.length ball <= Lcp_engine.Canon.max_order then
      check_int (what ^ ": shape key") (shape_mask edges)
        (shape_mask (Graph.edges view.View.graph))
  done

(* Seeded instances of order 9..14 with random ids (bound n^2) and
   ports: trees, G(n,p), preferential attachment, grids and bipartite
   double covers. *)
let layout_instances ~count ~seed =
  let rng = Random.State.make [| seed |] in
  List.init count (fun i ->
      let n = 9 + (i mod 6) in
      let g =
        match i mod 5 with
        | 0 -> random_tree rng n
        | 1 -> gnp rng n ~p:0.3
        | 2 -> Random_graphs.preferential_attachment rng n ~m:2
        | 3 -> Result.get_ok (Random_graphs.of_model rng ~nodes:n "grid")
        | _ -> Builders.double_cover (gnp rng ((n + 1) / 2) ~p:0.5)
      in
      Instance.random rng g)

let layout_differential ~count ~seed () =
  let rng = Random.State.make [| seed |] in
  let corpus =
    List.concat_map Enumerate.connected_up_to_iso [ 1; 2; 3; 4; 5; 6 ]
    |> List.map (fun g -> Instance.random rng g)
  in
  List.iteri
    (fun i inst ->
      List.iter
        (fun r -> check_layouts ~what:(Printf.sprintf "corpus %d" i) inst ~r)
        [ 1; 2; 3 ])
    corpus;
  List.iteri
    (fun i inst ->
      List.iter
        (fun r ->
          check_layouts
            ~what:(Printf.sprintf "random %d (n=%d)" i (Instance.order inst))
            inst ~r)
        [ 1; 2; 3 ])
    (layout_instances ~count ~seed);
  (* hubs with random ports and ids: a view centered on or next to a
     hub has more visible edges at one node than View reads its port
     row once per edge for; on a view's fringe the hub has one *)
  List.iter
    (fun (what, g) ->
      let inst = Instance.random rng g in
      List.iter (fun r -> check_layouts ~what inst ~r) [ 1; 2 ])
    [
      ("star:40", Builders.star 40);
      ("friendship:20", Builders.friendship 20);
      ("ba n=400 m=2", Random_graphs.preferential_attachment rng 400 ~m:2);
    ]

let test_layout_differential () = layout_differential ~count:10 ~seed:31 ()

let test_layout_differential_heavy () =
  if heavy_enabled then layout_differential ~count:50 ~seed:37 ()

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
    case "slots outside the ball are ignored" test_outside_ball_ignored;
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
    case "ball layout = reference, corpus and n=9..14, r=1..3"
      test_layout_differential;
    slow_case "ball layout = reference, 50 instances n=9..14 (LCP_HEAVY)"
      test_layout_differential_heavy;
  ]
