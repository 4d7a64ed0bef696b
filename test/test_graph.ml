open Lcp_graph
open Helpers
module Enumerate = Lcp_oracle.Enumerate

let test_empty () =
  let g = Graph.empty 5 in
  check_int "order" 5 (Graph.order g);
  check_int "size" 0 (Graph.size g);
  check_bool "no edge" false (Graph.mem_edge g 0 1)

let test_empty_zero () =
  let g = Graph.empty 0 in
  check_int "order" 0 (Graph.order g);
  check_bool "connected by convention" true (Graph.is_connected g)

let test_of_edges_basic () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  check_int "size" 2 (Graph.size g);
  check_bool "edge 0-1" true (Graph.mem_edge g 0 1);
  check_bool "edge 1-0 symmetric" true (Graph.mem_edge g 1 0);
  check_bool "no edge 0-2" false (Graph.mem_edge g 0 2);
  Alcotest.(check (list (pair int int))) "edges sorted" [ (0, 1); (1, 2) ] (Graph.edges g)

let test_of_edges_dedup () =
  let g = Graph.of_edges 2 [ (0, 1); (1, 0); (0, 1) ] in
  check_int "collapsed" 1 (Graph.size g)

let test_of_edges_rejects_loop () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.of_edges: self-loop at 1")
    (fun () -> ignore (Graph.of_edges 3 [ (1, 1) ]))

let test_of_edges_rejects_range () =
  (try
     ignore (Graph.of_edges 2 [ (0, 5) ]);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_add_remove () =
  let g = Graph.empty 3 in
  let g = Graph.add_edge g 0 2 in
  check_bool "added" true (Graph.mem_edge g 0 2);
  let g2 = Graph.add_edge g 0 2 in
  check_graph "idempotent add" g g2

let test_neighbors_sorted () =
  let g = Graph.of_edges 4 [ (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3 |] (Graph.neighbors_array g 2);
  check_int "degree" 3 (Graph.degree g 2)

let test_degrees () =
  let g = Builders.star 4 in
  check_int "min" 1 (Graph.min_degree g);
  check_int "max" 4 (Graph.max_degree g);
  Alcotest.(check (list (pair int int))) "counts" [ (1, 4); (4, 1) ] (Graph.degree_counts g)

let test_disjoint_union () =
  let g = Graph.disjoint_union (p4 ()) (c4 ()) in
  check_int "order" 8 (Graph.order g);
  check_int "size" 7 (Graph.size g);
  check_bool "shifted edge" true (Graph.mem_edge g 4 5);
  check_bool "no cross edge" false (Graph.mem_edge g 3 4);
  check_int "components" 2 (List.length (Graph.components g))

let test_induced () =
  let g = c5 () in
  let sub, back = Graph.induced g [ 0; 1; 2 ] in
  check_int "order" 3 (Graph.order sub);
  check_int "size" 2 (Graph.size sub);
  Alcotest.(check int_list) "mapping" [ 0; 1; 2 ] (Array.to_list back);
  let sub2, _ = Graph.induced g [ 2; 0; 1; 1 ] in
  check_graph "duplicates and order ignored" sub sub2

let test_relabel () =
  let g = Builders.path 3 in
  let h = Lcp_oracle.Enumerate.relabel g [| 2; 1; 0 |] in
  check_bool "edge 2-1" true (Graph.mem_edge h 2 1);
  check_bool "edge 1-0" true (Graph.mem_edge h 1 0);
  check_bool "no 0-2" false (Graph.mem_edge h 0 2)

let test_relabel_rejects () =
  (try
     ignore (Lcp_oracle.Enumerate.relabel (Builders.path 3) [| 0; 0; 1 |]);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_components () =
  let g = Graph.disjoint_union (Builders.path 2) (Builders.path 3) in
  Alcotest.(check (list int_list)) "components" [ [ 0; 1 ]; [ 2; 3; 4 ] ]
    (Graph.components g)

let test_predicates () =
  check_bool "C4 is cycle" true (Graph.is_cycle (c4 ()));
  check_bool "P4 not cycle" false (Graph.is_cycle (p4 ()));
  check_bool "P4 is path" true (Graph.is_path_graph (p4 ()));
  check_bool "C4 not path" false (Graph.is_path_graph (c4 ()));
  check_bool "star is tree" true (Graph.is_tree (Builders.star 3));
  check_bool "C4 not tree" false (Graph.is_tree (c4 ()));
  check_bool "single node is path" true (Graph.is_path_graph (Graph.empty 1));
  check_bool "disconnected not tree" false
    (Graph.is_tree (Graph.disjoint_union (Builders.path 2) (Builders.path 2)))

let test_connectivity () =
  check_bool "P4 connected" true (Graph.is_connected (p4 ()));
  check_bool "empty 2 disconnected" false (Graph.is_connected (Graph.empty 2));
  check_bool "single connected" true (Graph.is_connected (Graph.empty 1))

let test_equal_compare () =
  check_bool "equal" true (Graph.equal (p4 ()) (Builders.path 4));
  check_bool "not equal" false (Graph.equal (p4 ()) (c4 ()))

let test_isomorphic () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let h = Graph.of_edges 4 [ (3, 2); (2, 0); (0, 1) ] in
  check_bool "paths isomorphic" true (Enumerate.isomorphic g h);
  check_bool "P4 vs C4" false (Enumerate.isomorphic g (c4 ()));
  check_bool "P4 vs star" false (Enumerate.isomorphic g (Builders.star 3));
  check_bool "petersen self" true
    (Enumerate.isomorphic (Builders.petersen ()) (Builders.petersen ()))

let test_fold_iter () =
  let g = c4 () in
  check_int "fold_nodes" 6 (Graph.fold_nodes ( + ) g 0);
  check_int "fold_edges count" 4 (Graph.fold_edges (fun _ _ acc -> acc + 1) g 0);
  let count = ref 0 in
  Graph.iter_edges (fun _ _ -> incr count) g;
  check_int "iter_edges" 4 !count

let test_to_dot () =
  let dot = Graph.to_dot ~name:"T" (Builders.path 2) in
  check_bool "has header" true (contains ~needle:"graph T" dot);
  check_bool "has edge" true (contains ~needle:"0 -- 1" dot)

let suite =
  [
    case "empty" test_empty;
    case "empty zero" test_empty_zero;
    case "of_edges basic" test_of_edges_basic;
    case "of_edges dedup" test_of_edges_dedup;
    case "of_edges rejects loops" test_of_edges_rejects_loop;
    case "of_edges rejects out-of-range" test_of_edges_rejects_range;
    case "add/remove edge" test_add_remove;
    case "neighbors sorted" test_neighbors_sorted;
    case "degree statistics" test_degrees;
    case "disjoint union" test_disjoint_union;
    case "induced subgraph" test_induced;
    case "relabel" test_relabel;
    case "relabel rejects non-permutation" test_relabel_rejects;
    case "components" test_components;
    case "shape predicates" test_predicates;
    case "connectivity" test_connectivity;
    case "equality" test_equal_compare;
    case "isomorphism" test_isomorphic;
    case "folds and iterators" test_fold_iter;
    case "dot output" test_to_dot;
  ]
