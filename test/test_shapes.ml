(* Shape tables: the per-domain second level under the acceptance
   tables ({!Lcp_engine.Eval_cache}, [~shapes:true]). Every case
   compares the production search with the direct-decoding oracle.

   - isolation: each part of the shape key (the decoder's verdict
     closure, the eligibility gate, the id bound) is exercised by two
     searches that would read each other's verdicts without it;
   - differential: every eligible registry decoder on seeded random
     instances at n = 9..11, beyond the exhaustive corpus the other
     suites use, and jobs = 1 against jobs = 2;
   - pins (LCP_HEAVY): the degree-one n = 8 sweep's counters, and a
     second sweep in the same process filling no new entry. *)

open Lcp_graph
open Lcp_local
open Lcp
open Helpers
module Run_cfg = Lcp_obs.Run_cfg
module Metrics_obs = Lcp_obs.Metrics
module Oracle = Lcp_oracle.Oracle

let heavy_enabled = Sys.getenv_opt "LCP_HEAVY" <> None
let seq_cfg () = Run_cfg.make ~jobs:1 ()

(* The production search and the direct-decoding oracle on one
   instance: witness and tally must be identical. *)
let check_search ~what dec ~alphabet inst =
  let witness, tally = Prover.search_accepted ~cfg:(seq_cfg ()) dec ~alphabet inst in
  let direct_witness, direct_tally =
    Oracle.search_accepted ~cfg:(seq_cfg ()) ~verdicts:Oracle.Direct
      ~quotient:true dec ~alphabet inst
  in
  check_bool (what ^ ": witness = oracle") true (witness = direct_witness);
  check_int (what ^ ": tally = oracle") direct_tally tally

let eligible ~name f =
  Decoder.make ~port_invariant:true ~name ~radius:1 ~anonymous:true f

let center_is s view = View.center_label view = s

(* ------------------------------------------------------------------ *)
(* isolation                                                           *)

let test_same_name_decoders () =
  (* one name, radius and alphabet, two verdict functions: each accepts
     only its own symbol, so reading the other's table flips every
     verdict *)
  let a = eligible ~name:"quirky" (center_is "a") in
  let b = eligible ~name:"quirky" (center_is "b") in
  let alphabet = [ "a"; "b" ] in
  let graphs = [ Builders.path 4; Builders.star 4; Builders.path 4 ] in
  List.iteri
    (fun i g ->
      List.iter
        (fun (what, dec) ->
          check_search ~what:(Printf.sprintf "%s, graph %d" what i) dec ~alphabet
            (Instance.make g))
        [ ("first", a); ("second", b) ])
    graphs

let test_id_reading_decoder () =
  (* not anonymous: a node accepts the parity of its own id. Reversing
     the ids keeps every view's shape and flips every verdict. *)
  let dec =
    Decoder.make ~port_invariant:true ~name:"id-parity" ~radius:1
      ~anonymous:false (fun view ->
        View.center_label view = string_of_int (View.center_id view mod 2))
  in
  let alphabet = [ "0"; "1" ] in
  let g = Builders.path 4 in
  let forward = Instance.make g in
  let reversed =
    Instance.with_ids forward (Ident.of_array ~bound:4 [| 4; 3; 2; 1 |])
  in
  List.iteri
    (fun i inst ->
      check_search ~what:(Printf.sprintf "id-parity, search %d" i) dec ~alphabet
        inst)
    [ forward; reversed; forward; reversed ]

let test_id_bound () =
  (* anonymous, but a node accepts the parity of the id bound N that
     every node knows: two instances differing only in N *)
  let dec =
    eligible ~name:"bound-parity" (fun view ->
        View.center_label view = string_of_int (view.View.id_bound mod 2))
  in
  let alphabet = [ "0"; "1" ] in
  let g = Builders.path 4 in
  let ids = [| 1; 2; 3; 4 |] in
  let with_bound bound = Instance.make ~ids:(Ident.of_array ~bound ids) g in
  List.iteri
    (fun i inst ->
      check_search ~what:(Printf.sprintf "bound-parity, search %d" i) dec
        ~alphabet inst)
    [ with_bound 4; with_bound 5; with_bound 4; with_bound 5 ]

(* ------------------------------------------------------------------ *)
(* differential beyond the corpus                                      *)

let eligible_registry () =
  List.filter
    (fun (e : Registry.entry) ->
      let dec = e.Registry.suite.Decoder.dec in
      dec.Decoder.anonymous && dec.Decoder.port_invariant)
    Registry.all

(* Seeded instances of order 9..11: random trees, G(n,p), preferential
   attachment, grids and bipartite double covers, half of them with
   random ids (bound n^2) and ports. *)
let random_instances ~count ~seed =
  let rng = Random.State.make [| seed |] in
  List.init count (fun i ->
      let n = 9 + (i mod 3) in
      let g =
        match i mod 5 with
        | 0 -> Random_graphs.tree rng n
        | 1 -> Random_graphs.gnp rng n ~p:0.3
        | 2 -> Random_graphs.preferential_attachment rng n ~m:2
        | 3 -> Random_graphs.grid_near (10 + (i mod 2))
        | _ -> Builders.double_cover (Random_graphs.gnp rng 5 ~p:0.5)
      in
      if i mod 2 = 0 then Instance.make g else Instance.random rng g)

let differential ~count ~seed () =
  let instances = random_instances ~count ~seed in
  List.iter
    (fun (e : Registry.entry) ->
      let suite = e.Registry.suite in
      let dec = suite.Decoder.dec in
      (* every instance against the oracle *)
      List.iteri
        (fun i inst ->
          let alphabet = suite.Decoder.adversary_alphabet inst in
          check_search
            ~what:
              (Printf.sprintf "%s, instance %d (n=%d)" e.Registry.key i
                 (Instance.order inst))
            dec ~alphabet inst)
        instances;
      (* the same searches spread over one and two domains: witnesses
         and every counter identical *)
      let at jobs =
        let cfg = Run_cfg.make ~jobs () in
        let witnesses =
          Lcp_engine.Pool.map ~jobs
            (fun inst ->
              fst
                (Prover.search_accepted ~cfg dec
                   ~alphabet:(suite.Decoder.adversary_alphabet inst)
                   inst))
            (Array.of_list instances)
        in
        (witnesses, Metrics_obs.counters cfg.Run_cfg.metrics)
      in
      let w1, c1 = at 1 and w2, c2 = at 2 in
      check_bool (e.Registry.key ^ ": jobs=1 witnesses = jobs=2") true (w1 = w2);
      check_bool (e.Registry.key ^ ": jobs=1 counters = jobs=2") true (c1 = c2);
      check_bool (e.Registry.key ^ ": tables queried") true
        (List.assoc_opt "eval_cache_misses" c1 <> Some 0))
    (eligible_registry ())

let test_differential () = differential ~count:5 ~seed:17 ()

let test_differential_heavy () =
  if heavy_enabled then differential ~count:30 ~seed:23 ()

(* ------------------------------------------------------------------ *)
(* pins                                                                *)

let test_n8_pins () =
  if heavy_enabled then begin
    let sweep () =
      Lcp_engine.Sweep.clear_cache ();
      let cfg = seq_cfg () in
      let s = Checker.soundness_sweep ~cfg D_degree_one.suite ~n:8 in
      check_bool "n=8 sweep passes" true
        (Checker.is_pass (Checker.verdict_of_sweep s));
      let m = cfg.Run_cfg.metrics in
      let c name = Metrics_obs.counter m name in
      check_int "labelings_checked" 11_052_605 (c "labelings_checked");
      check_int "eval_cache_hits" 997_511 (c "eval_cache_hits");
      check_int "eval_cache_misses" 6_895_682 (c "eval_cache_misses");
      check_int "orbit_pruned_branches" 1_266_460 (c "orbit_pruned_branches");
      ( Metrics_obs.counters m,
        Metrics_obs.gauge m "eval_cache/shape_tables",
        Metrics_obs.gauge m "eval_cache/shape_entries" )
    in
    let first, _, _ = sweep () in
    let second, tables, entries = sweep () in
    check_bool "second sweep: counters identical" true (first = second);
    check_bool "second sweep: no shape table built" true (tables = Some 0);
    check_bool "second sweep: no entry filled" true (entries = Some 0)
  end

let suite =
  [
    case "isolation: same-name decoders, different verdicts"
      test_same_name_decoders;
    case "isolation: id-reading decoder stays per-instance"
      test_id_reading_decoder;
    case "isolation: instances differing only in id bound" test_id_bound;
    slow_case "differential: eligible registry decoders, n=9..11"
      test_differential;
    slow_case "differential: 30 instances (LCP_HEAVY)" test_differential_heavy;
    slow_case "degree-one n=8 pins, warm second sweep (LCP_HEAVY)" test_n8_pins;
  ]
