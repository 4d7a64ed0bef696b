open Lcp_graph
open Helpers

let test_is_proper () =
  let g = Builders.path 3 in
  check_bool "alternating" true (Coloring.is_proper g [| 0; 1; 0 |]);
  check_bool "clash" false (Coloring.is_proper g [| 0; 0; 1 |]);
  check_bool "wrong length" false (Coloring.is_proper g [| 0; 1 |]);
  check_bool "arbitrary values ok" true (Coloring.is_proper g [| 7; -2; 7 |])

let test_is_proper_k () =
  let g = Builders.path 3 in
  check_bool "within range" true (Coloring.is_proper_k g ~k:2 [| 0; 1; 0 |]);
  check_bool "out of range" false (Coloring.is_proper_k g ~k:2 [| 0; 2; 0 |])

let test_two_color () =
  (match Coloring.two_color (Builders.cycle 6) with
  | Some c -> check_bool "proper" true (Coloring.is_proper_k (Builders.cycle 6) ~k:2 c)
  | None -> Alcotest.fail "C6 bipartite");
  Alcotest.(check bool) "C5 not bipartite" true (Coloring.two_color (c5 ()) = None);
  (match Coloring.two_color (Graph.empty 3) with
  | Some c -> Alcotest.(check int_list) "all zero" [ 0; 0; 0 ] (Array.to_list c)
  | None -> Alcotest.fail "edgeless bipartite")

let test_two_color_components () =
  let g = Graph.disjoint_union (Builders.cycle 4) (Builders.path 3) in
  match Coloring.two_color g with
  | Some c -> check_bool "proper across components" true (Coloring.is_proper g c)
  | None -> Alcotest.fail "bipartite union"

let test_is_bipartite () =
  check_bool "grid" true (Coloring.is_bipartite (Builders.grid 3 3));
  check_bool "petersen" false (Coloring.is_bipartite (Builders.petersen ()));
  check_bool "K4" false (Coloring.is_bipartite (k4 ()))

let test_odd_cycle_witness () =
  List.iter
    (fun g ->
      match Coloring.odd_cycle g with
      | Some w ->
          check_bool "odd closed walk" true (Coloring.odd_closed_walk_check g w)
      | None -> Alcotest.fail "expected odd cycle")
    [ c5 (); k4 (); Builders.petersen (); Builders.friendship 2;
      Builders.watermelon [ 2; 3 ];
      Graph.disjoint_union (Builders.path 4) (Builders.cycle 3) ]

let test_odd_cycle_none () =
  Alcotest.(check bool) "bipartite has none" true
    (Coloring.odd_cycle (Builders.grid 4 4) = None)

let test_odd_closed_walk_check () =
  let g = c5 () in
  check_bool "the 5-cycle" true (Coloring.odd_closed_walk_check g [ 0; 1; 2; 3; 4 ]);
  check_bool "even walk" false (Coloring.odd_closed_walk_check g [ 0; 1; 2; 1 ]);
  check_bool "broken walk" false (Coloring.odd_closed_walk_check g [ 0; 2; 4 ]);
  check_bool "too short" false (Coloring.odd_closed_walk_check g [ 0 ])

let test_k_color () =
  (match Coloring.k_color (c5 ()) ~k:3 with
  | Some c -> check_bool "proper 3" true (Coloring.is_proper_k (c5 ()) ~k:3 c)
  | None -> Alcotest.fail "C5 is 3-colorable");
  check_bool "C5 not 2-colorable" true (Coloring.k_color (c5 ()) ~k:2 = None);
  check_bool "K4 not 3-colorable" true (Coloring.k_color (k4 ()) ~k:3 = None);
  (match Coloring.k_color (k4 ()) ~k:4 with
  | Some c -> check_bool "proper 4" true (Coloring.is_proper_k (k4 ()) ~k:4 c)
  | None -> Alcotest.fail "K4 is 4-colorable");
  check_bool "k=0 empty graph" true (Coloring.k_color (Graph.empty 0) ~k:0 <> None);
  check_bool "k=1 edgeless" true (Coloring.k_color (Graph.empty 4) ~k:1 <> None);
  check_bool "k=1 with edge" true (Coloring.k_color (Builders.path 2) ~k:1 = None)

let test_k_color_components () =
  (* per-component solving: a non-2-colorable component after many
     bipartite ones must still be detected quickly *)
  let g =
    List.fold_left
      (fun acc g -> Graph.disjoint_union acc g)
      (Builders.cycle 4)
      [ Builders.cycle 4; Builders.cycle 4; Builders.cycle 5 ]
  in
  check_bool "detects the C5" true (Coloring.k_color g ~k:2 = None);
  match Coloring.k_color g ~k:3 with
  | Some c -> check_bool "3-colors all" true (Coloring.is_proper_k g ~k:3 c)
  | None -> Alcotest.fail "3-colorable"

let suite =
  [
    case "is_proper" test_is_proper;
    case "is_proper_k" test_is_proper_k;
    case "two_color" test_two_color;
    case "two_color across components" test_two_color_components;
    case "is_bipartite" test_is_bipartite;
    case "odd cycle witnesses" test_odd_cycle_witness;
    case "odd cycle absent" test_odd_cycle_none;
    case "odd closed walk check" test_odd_closed_walk_check;
    case "k_color" test_k_color;
    case "k_color per component" test_k_color_components;
  ]
