open Lcp_graph
open Helpers

let test_bfs_dist () =
  let g = Builders.path 5 in
  let d = Metrics.bfs_dist g 0 in
  Alcotest.(check int_list) "path distances" [ 0; 1; 2; 3; 4 ] (Array.to_list d);
  let g2 = Graph.disjoint_union (Builders.path 2) (Builders.path 2) in
  check_bool "unreachable" true ((Metrics.bfs_dist g2 0).(3) = max_int)

let test_dist () =
  check_int "cycle antipodal" 3 ((Metrics.bfs_dist (Builders.cycle 6) 0).(3));
  check_int "self" 0 ((Metrics.bfs_dist (Builders.cycle 6) 2).(2))

let test_ball () =
  let g = Builders.path 7 in
  Alcotest.(check int_list) "ball r=2 around 3" [ 1; 2; 3; 4; 5 ] (Metrics.ball g 3 2);
  Alcotest.(check int_list) "ball r=0" [ 3 ] (Metrics.ball g 3 0);
  Alcotest.(check int_list) "ball covers all" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Metrics.ball g 3 10)

let test_eccentricity_diameter_radius () =
  let g = Builders.path 5 in
  check_int "diameter" 4 (Metrics.diameter g);
  check_int "diameter of K1" 0 (Metrics.diameter (Graph.empty 1));
  check_bool "disconnected diameter" true
    (Metrics.diameter (Graph.empty 2) = max_int)

let test_girth () =
  Alcotest.(check (option int)) "tree" None (Metrics.girth (Builders.path 5));
  Alcotest.(check (option int)) "C7" (Some 7) (Metrics.girth (Builders.cycle 7));
  Alcotest.(check (option int)) "K4" (Some 3) (Metrics.girth (Builders.complete 4));
  Alcotest.(check (option int)) "theta(2,2,3)" (Some 4)
    (Metrics.girth (Builders.theta 2 2 3));
  Alcotest.(check (option int)) "hypercube" (Some 4)
    (Metrics.girth (Builders.hypercube 3))

let test_shortest_path () =
  let g = Builders.cycle 6 in
  (match Metrics.shortest_path g 0 3 with
  | Some p ->
      check_int "length" 4 (List.length p);
      check_bool "valid walk" true (Walks.is_walk g p)
  | None -> Alcotest.fail "no path");
  Alcotest.(check (option (list int))) "disconnected" None
    (Metrics.shortest_path (Graph.empty 2) 0 1);
  Alcotest.(check (option (list int))) "self" (Some [ 2 ])
    (Metrics.shortest_path g 2 2)

let test_shortest_path_avoiding () =
  let g = Builders.cycle 6 in
  (* forbid node 1: the 0 -> 2 path must go the long way *)
  match Metrics.shortest_path_avoiding g ~avoid:(fun v -> v = 1) 0 2 with
  | Some p ->
      check_int "detour length" 5 (List.length p);
      check_bool "avoids 1" true (not (List.mem 1 p))
  | None -> Alcotest.fail "no avoiding path"

let test_avoiding_blocked () =
  let g = Builders.path 3 in
  Alcotest.(check (option (list int))) "cut vertex blocks" None
    (Metrics.shortest_path_avoiding g ~avoid:(fun v -> v = 1) 0 2)

let suite =
  [
    case "bfs distances" test_bfs_dist;
    case "pairwise distance" test_dist;
    case "balls" test_ball;
    case "eccentricity / diameter / radius" test_eccentricity_diameter_radius;
    case "girth" test_girth;
    case "shortest path" test_shortest_path;
    case "shortest path avoiding" test_shortest_path_avoiding;
    case "avoiding a cut vertex" test_avoiding_blocked;
  ]
