open Lcp_graph
open Helpers

let test_is_walk () =
  let g = Builders.path 4 in
  check_bool "path walk" true (Walks.is_walk g [ 0; 1; 2; 3 ]);
  check_bool "backtracking still a walk" true (Walks.is_walk g [ 0; 1; 0 ]);
  check_bool "jump" false (Walks.is_walk g [ 0; 2 ]);
  check_bool "empty" false (Walks.is_walk g [])

let test_is_closed_walk () =
  let g = c4 () in
  check_bool "C4 tour" true (Walks.is_closed_walk g [ 0; 1; 2; 3 ]);
  check_bool "open" false (Walks.is_closed_walk g [ 0; 1; 2 ]);
  check_bool "2-walk" true (Walks.is_closed_walk g [ 0; 1 ]);
  check_bool "singleton" false (Walks.is_closed_walk g [ 0 ])

let test_non_backtracking () =
  let g = c6 () in
  check_bool "cycle tour" true (Walks.is_non_backtracking g [ 0; 1; 2; 3; 4; 5 ]);
  check_bool "spike backtracks" false
    (Walks.is_non_backtracking g [ 0; 1; 0; 5; 4; 3; 2; 1 ]);
  check_bool "2-walk backtracks" false (Walks.is_non_backtracking g [ 0; 1 ])

let test_nb_search () =
  let g = c5 () in
  (match Walks.non_backtracking_closed_walk g ~start:0 ~len:5 with
  | Some w ->
      check_bool "closed" true (Walks.is_closed_walk g w);
      check_bool "nb" true (Walks.is_non_backtracking g w);
      check_int "length" 5 (List.length w)
  | None -> Alcotest.fail "C5 tour exists");
  check_bool "no length-3 in C5" true
    (Walks.non_backtracking_closed_walk g ~start:0 ~len:3 = None);
  check_bool "no length-4 in C5" true
    (Walks.non_backtracking_closed_walk g ~start:0 ~len:4 = None);
  let p = Builders.path 4 in
  check_bool "paths have none" true
    (Walks.non_backtracking_closed_walk p ~start:1 ~len:4 = None)

let test_nb_search_theta () =
  let g = Builders.theta 2 2 2 in
  match Walks.non_backtracking_closed_walk g ~start:0 ~len:4 with
  | Some w -> check_bool "4-cycle found" true (Walks.is_non_backtracking g w)
  | None -> Alcotest.fail "theta(2,2,2) has 4-cycles"

let test_splice () =
  let g = c6 () in
  let tour = [ 0; 1; 2; 3; 4; 5 ] in
  let detour = [ 2; 3 ] in
  (* the closed walk 2 -> 3 -> 2 in list-without-repeat form *)
  check_bool "detour closed" true (Walks.is_closed_walk g detour);
  let spliced = Walks.splice tour 2 detour in
  check_int "length adds" (6 + 2) (List.length spliced);
  check_bool "still closed" true (Walks.is_closed_walk g spliced);
  Alcotest.(check int_list) "structure" [ 0; 1; 2; 3; 2; 3; 4; 5 ] spliced

let test_splice_rejects () =
  (try
     ignore (Walks.splice [ 0; 1; 2; 3 ] 1 [ 0; 1 ]);
     Alcotest.fail "expected mismatch failure"
   with Invalid_argument _ -> ())

let suite =
  [
    case "is_walk" test_is_walk;
    case "is_closed_walk" test_is_closed_walk;
    case "non-backtracking predicate" test_non_backtracking;
    case "nb closed walk search" test_nb_search;
    case "nb search in theta" test_nb_search_theta;
    case "splice" test_splice;
    case "splice rejects bad insert" test_splice_rejects;
  ]
