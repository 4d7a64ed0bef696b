open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let test_trivial_not_hiding () =
  let suite = D_trivial.suite ~k:2 in
  let insts =
    List.filter_map
      (fun g -> Decoder.certify suite (Instance.make g))
      [ Builders.path 4; Builders.cycle 4; Builders.cycle 6 ]
  in
  match Hiding.check ~k:2 suite.Decoder.dec insts with
  | Hiding.Colorable { coloring; nbhd } ->
      check_bool "coloring proper" true
        (Coloring.is_proper nbhd.Neighborhood.graph coloring)
  | Hiding.Hiding _ -> Alcotest.fail "trivial LCP is not hiding"

let test_even_cycle_hiding () =
  let fam =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 6 ]
      ~ports:`All ()
  in
  match Hiding.check ~k:2 D_even_cycle.decoder fam with
  | Hiding.Hiding { witness; nbhd } ->
      check_bool "odd witness" true (List.length witness mod 2 = 1);
      (* the witness is either a looped view class (an odd closed walk
         of length one through a self-loop of V) or an odd cycle *)
      check_bool "witness is a loop or closed walk of V" true
        (match witness with
        | [ i ] -> List.mem i nbhd.Neighborhood.loops
        | w -> Coloring.odd_closed_walk_check nbhd.Neighborhood.graph w)
  | Hiding.Colorable _ -> Alcotest.fail "even-cycle decoder is hiding"

let test_is_hiding_on () =
  let fam =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 6 ]
      ~ports:`All ()
  in
  check_bool "hiding" true (Hiding.is_hiding_on ~k:2 D_even_cycle.decoder fam);
  let suite = D_trivial.suite ~k:2 in
  let insts = [ certify_exn suite (Builders.path 4) ] in
  check_bool "not hiding" false (Hiding.is_hiding_on ~k:2 suite.Decoder.dec insts)

let test_k3_witness_shrink () =
  (* exercise the generic (k >= 3) witness path: the views of a
     4-colored K4 form a K4 inside V, which is not 3-colorable; note
     K4 is 2-colorable as a language instance is false, but here we only
     need V's structure, and K4 is a 4-col yes-instance *)
  let suite = D_trivial.suite ~k:4 in
  let i = certify_exn suite (k4 ()) in
  match
    Hiding.check ~yes:(fun g -> Coloring.is_k_colorable g ~k:4) ~k:3
      suite.Decoder.dec [ i ]
  with
  | Hiding.Hiding { witness; nbhd } ->
      let sub, _ = Graph.induced nbhd.Neighborhood.graph witness in
      check_bool "witness not 3-colorable" false (Coloring.is_k_colorable sub ~k:3)
  | Hiding.Colorable _ -> Alcotest.fail "V(K4 views) contains a K4"

let test_k3_colorable_direction () =
  let suite = D_trivial.suite ~k:4 in
  let i = certify_exn suite (k4 ()) in
  match Hiding.check ~k:4 suite.Decoder.dec [ i ] with
  | Hiding.Colorable { coloring; nbhd } ->
      check_bool "proper 4-coloring of V" true
        (Coloring.is_proper_k nbhd.Neighborhood.graph ~k:4 coloring)
  | Hiding.Hiding _ -> Alcotest.fail "trivial 4-col is not hiding at k=4"

let suite =
  [
    case "trivial LCP not hiding" test_trivial_not_hiding;
    case "even-cycle LCP hiding" test_even_cycle_hiding;
    case "is_hiding_on" test_is_hiding_on;
    case "k=3 views give k=2 witness" test_k3_witness_shrink;
    case "k=3 colorable direction" test_k3_colorable_direction;
  ]
