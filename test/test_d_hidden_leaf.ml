open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let star_view ~k labels pos =
  let kk = Array.length labels - 1 in
  ignore k;
  View.extract (Instance.make (Builders.star kk) ~labels) ~r:1 pos

let test_k2_matches_degree_one_on_honest () =
  (* the two decoders agree on honest degree-one certificates *)
  List.iter
    (fun g ->
      let inst = Instance.make g in
      match (D_degree_one.prover inst, (D_hidden_leaf.suite ~k:2).Decoder.prover inst) with
      | Some l1, Some l2 ->
          let i1 = Instance.with_labels inst l1 in
          let i2 = Instance.with_labels inst l2 in
          check_bool "degree-one accepts its certs" true
            (Decoder.accepts_all D_degree_one.decoder i1);
          check_bool "hidden-leaf accepts its certs" true
            (Decoder.accepts_all (D_hidden_leaf.decoder ~k:2) i2);
          check_bool "cross-acceptance" true
            (Decoder.accepts_all (D_hidden_leaf.decoder ~k:2) i1)
      | _ -> Alcotest.fail "provers should succeed")
    [ Builders.path 5; Builders.star 3; Builders.caterpillar 3 1 ]

let test_top_distinct_color_bound () =
  (* k = 3, a top with neighbors colored 0,1: fine; 0,1,2: rejected *)
  let d3 = D_hidden_leaf.decoder ~k:3 in
  let ok = star_view ~k:3 [| "T"; "B"; "0"; "1" |] 0 in
  check_bool "two distinct colors pass at k=3" true (d3.Decoder.accepts ok);
  let bad = star_view ~k:3 [| "T"; "B"; "0"; "1"; "2" |] 0 in
  check_bool "three distinct colors rejected at k=3" false (d3.Decoder.accepts bad);
  let dup = star_view ~k:3 [| "T"; "B"; "0"; "1"; "1" |] 0 in
  check_bool "duplicates do not count" true (d3.Decoder.accepts dup)

let test_colored_rules_k3 () =
  let d3 = D_hidden_leaf.decoder ~k:3 in
  let v = star_view ~k:3 [| "0"; "1"; "2"; "1" |] 0 in
  check_bool "distinct-from-me suffices at k=3" true (d3.Decoder.accepts v);
  let clash = star_view ~k:3 [| "1"; "1"; "2"; "0" |] 0 in
  check_bool "own color clash rejected" false (d3.Decoder.accepts clash);
  let out_of_range = star_view ~k:3 [| "3"; "1"; "2"; "0" |] 0 in
  check_bool "color 3 invalid at k=3" false (d3.Decoder.accepts out_of_range)

let test_prover_k3 () =
  (* a non-bipartite but 3-colorable graph with a leaf *)
  let g = Builders.pendant (Builders.cycle 5) 0 in
  let inst = Instance.make g in
  check_bool "k=2 prover refuses (not bipartite)" true
    ((D_hidden_leaf.suite ~k:2).Decoder.prover inst = None);
  match (D_hidden_leaf.suite ~k:3).Decoder.prover inst with
  | Some lab ->
      check_bool "k=3 accepted" true
        (Decoder.accepts_all (D_hidden_leaf.decoder ~k:3) (Instance.with_labels inst lab))
  | None -> Alcotest.fail "C5 + pendant is 3-colorable with a leaf"

let test_strong_soundness_k3_exhaustive () =
  let suite = D_hidden_leaf.suite ~k:3 in
  let verdicts =
    Checker.strong_soundness_exhaustive suite ~k:3
      (List.map Instance.make [ k4 (); Builders.cycle 4; Builders.path 4 ])
  in
  check_bool "k=3 strong soundness" true (Checker.is_pass verdicts)

let test_soundness_k3_on_k4 () =
  (* K4 is not 3-colorable: no certificate assignment may be accepted *)
  let suite = D_hidden_leaf.suite ~k:3 in
  let i = Instance.make (k4 ()) in
  check_bool "K4 rejected" true
    (Prover.find_accepted suite.Decoder.dec
       ~alphabet:(suite.Decoder.adversary_alphabet i)
       i
    = None)

let test_alphabet () =
  check_int "k=3 alphabet size" 6 (List.length (D_hidden_leaf.alphabet ~k:3));
  check_int "k=2 alphabet size" 5 (List.length (D_hidden_leaf.alphabet ~k:2))

let suite =
  [
    case "k=2 agrees with degree-one" test_k2_matches_degree_one_on_honest;
    case "top distinct-color bound" test_top_distinct_color_bound;
    case "colored rules at k=3" test_colored_rules_k3;
    case "prover at k=3" test_prover_k3;
    case "strong soundness k=3 exhaustive" test_strong_soundness_k3_exhaustive;
    case "soundness on K4" test_soundness_k3_on_k4;
    case "alphabet" test_alphabet;
  ]
