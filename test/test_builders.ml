open Lcp_graph
open Helpers

let regular g d =
  Graph.fold_nodes (fun v acc -> acc && Graph.degree g v = d) g true

let test_path () =
  let g = Builders.path 5 in
  check_int "order" 5 (Graph.order g);
  check_int "size" 4 (Graph.size g);
  check_bool "is path" true (Graph.is_path_graph g);
  check_int "path 0 order" 0 (Graph.order (Builders.path 0));
  check_int "path 1 size" 0 (Graph.size (Builders.path 1))

let test_cycle () =
  let g = Builders.cycle 5 in
  check_bool "is cycle" true (Graph.is_cycle g);
  check_bool "2-regular" true (regular g 2);
  (try
     ignore (Builders.cycle 2);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_star () =
  let g = Builders.star 4 in
  check_int "order" 5 (Graph.order g);
  check_int "hub degree" 4 (Graph.degree g 0);
  check_bool "tree" true (Graph.is_tree g)

let test_complete () =
  let g = Builders.complete 5 in
  check_int "size" 10 (Graph.size g);
  check_bool "4-regular" true (regular g 4)

let test_complete_bipartite () =
  let g = complete_bipartite 2 3 in
  check_int "size" 6 (Graph.size g);
  check_bool "bipartite" true (Coloring.is_bipartite g);
  check_bool "no intra-part edge" false (Graph.mem_edge g 0 1)

let test_grid () =
  let g = Builders.grid 3 4 in
  check_int "order" 12 (Graph.order g);
  check_int "size" 17 (Graph.size g);
  check_bool "bipartite" true (Coloring.is_bipartite g);
  check_int "corner degree" 2 (Graph.degree g 0)

let test_torus () =
  let g = Builders.torus 4 4 in
  check_bool "4-regular" true (regular g 4);
  check_bool "even torus bipartite" true (Coloring.is_bipartite g);
  check_bool "odd torus not bipartite" false (Coloring.is_bipartite (Builders.torus 3 3))

let test_hypercube () =
  let g = Builders.hypercube 3 in
  check_int "order" 8 (Graph.order g);
  check_int "size" 12 (Graph.size g);
  check_bool "3-regular" true (regular g 3);
  check_bool "bipartite" true (Coloring.is_bipartite g)

let test_binary_tree () =
  let g = Builders.binary_tree 3 in
  check_int "order" 15 (Graph.order g);
  check_bool "tree" true (Graph.is_tree g)

let test_caterpillar () =
  let g = Builders.caterpillar 3 2 in
  check_int "order" 9 (Graph.order g);
  check_bool "tree" true (Graph.is_tree g);
  check_int "spine degree" 4 (Graph.degree g 1)

let test_watermelon () =
  let g = Builders.watermelon [ 2; 3; 4 ] in
  check_int "order" (2 + 1 + 2 + 3) (Graph.order g);
  check_int "endpoint degree" 3 (Graph.degree g 0);
  check_int "endpoint degree v2" 3 (Graph.degree g 1);
  check_int "size" 9 (Graph.size g);
  check_bool "same parity bipartite" true
    (Coloring.is_bipartite (Builders.watermelon [ 3; 3; 5 ]));
  check_bool "mixed parity odd cycle" false
    (Coloring.is_bipartite (Builders.watermelon [ 2; 3 ]));
  (try
     ignore (Builders.watermelon [ 1; 2 ]);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_theta () =
  check_graph "theta = 3-path watermelon" (Builders.theta 2 2 2)
    (Builders.watermelon [ 2; 2; 2 ])

let test_book_friendship () =
  let f = Builders.friendship 3 in
  check_int "friendship order" 7 (Graph.order f);
  check_int "hub degree" 6 (Graph.degree f 0);
  check_bool "triangles" false (Coloring.is_bipartite f)

let test_petersen () =
  let g = Builders.petersen () in
  check_bool "3-regular" true (regular g 3);
  check_int "order" 10 (Graph.order g);
  Alcotest.(check (option int)) "girth 5" (Some 5) (Metrics.girth g)

let test_pendant () =
  let g = Builders.pendant (Builders.cycle 4) 2 in
  check_int "order" 5 (Graph.order g);
  check_int "new leaf degree" 1 (Graph.degree g 4);
  check_bool "attached" true (Graph.mem_edge g 2 4)

let test_random_generators () =
  let r = rng () in
  let g = gnp r 10 ~p:0.5 in
  check_int "gnp order" 10 (Graph.order g);
  (* with no G(n,p) noise, random_connected is its random tree *)
  let t = Builders.random_connected r 12 0. in
  check_bool "random tree is tree" true (Graph.is_tree t);
  let c = Builders.random_connected r 9 0.2 in
  check_bool "random connected" true (Graph.is_connected c)

let suite =
  [
    case "path" test_path;
    case "cycle" test_cycle;
    case "star" test_star;
    case "complete" test_complete;
    case "complete bipartite" test_complete_bipartite;
    case "grid" test_grid;
    case "torus" test_torus;
    case "hypercube" test_hypercube;
    case "binary tree" test_binary_tree;
    case "caterpillar" test_caterpillar;
    case "watermelon" test_watermelon;
    case "theta" test_theta;
    case "book and friendship" test_book_friendship;
    case "petersen" test_petersen;
    case "pendant" test_pendant;
    case "random generators" test_random_generators;
  ]
