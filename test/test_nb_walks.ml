open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let wm = Builders.watermelon [ 6; 6 ]
let theta = Builders.theta 4 4 4

(* the expansion detours through a node whose radius-r ball is disjoint
   from those of u and v (the v_mu' of Lemma 5.4) *)
let test_far_node () =
  (match Nb_walks.edge_expansion wm ~r:1 ~u:2 ~v:3 with
  | Some w ->
      check_bool "passes a node far from u and v" true
        (List.exists
           (fun x -> (Metrics.bfs_dist wm x).(2) > 2 && (Metrics.bfs_dist wm x).(3) > 2)
           w)
  | None -> Alcotest.fail "C12 has far nodes");
  check_bool "K4 has none" true (Nb_walks.edge_expansion (k4 ()) ~r:1 ~u:0 ~v:1 = None)

let test_edge_expansion () =
  match Nb_walks.edge_expansion wm ~r:1 ~u:2 ~v:3 with
  | Some w ->
      check_bool "closed" true (Walks.is_closed_walk wm w);
      check_bool "non-backtracking" true (Walks.is_non_backtracking wm w);
      check_bool "even (bipartite host)" true (List.length w mod 2 = 0);
      check_bool "starts at u" true (List.hd w = 2);
      check_bool "second is v" true (List.nth w 1 = 3)
  | None -> Alcotest.fail "expansion exists on C12"

let test_edge_expansion_theta () =
  match Nb_walks.edge_expansion theta ~r:1 ~u:2 ~v:3 with
  | Some w ->
      check_bool "closed nb even" true
        (Walks.is_closed_walk theta w
        && Walks.is_non_backtracking theta w
        && List.length w mod 2 = 0)
  | None -> Alcotest.fail "expansion exists on theta(4,4,4)"

let test_edge_expansion_requires_edge () =
  (try
     ignore (Nb_walks.edge_expansion wm ~r:1 ~u:0 ~v:1);
     Alcotest.fail "0-1 is not an edge of watermelon[6;6]"
   with Invalid_argument _ -> ())

let test_expand_closed_walk () =
  let tour = [ 0; 2; 3; 4; 5; 6; 1; 11; 10; 9; 8; 7 ] in
  check_bool "tour valid" true (Walks.is_closed_walk wm tour);
  match Nb_walks.expand_closed_walk wm ~r:1 tour with
  | Some w ->
      check_bool "parity preserved" true (List.length w mod 2 = 0);
      check_bool "non-backtracking" true (Walks.is_non_backtracking wm w);
      check_bool "longer" true (List.length w > List.length tour)
  | None -> Alcotest.fail "expansion exists"

let test_odd_nb_closed_walk () =
  check_bool "none in bipartite" true
    (Nb_walks.odd_nb_closed_walk wm ~max_len:11 = None);
  (match Nb_walks.odd_nb_closed_walk (Builders.petersen ()) ~max_len:7 with
  | Some w ->
      check_bool "odd" true (List.length w mod 2 = 1);
      check_int "girth-length" 5 (List.length w)
  | None -> Alcotest.fail "petersen has 5-cycles")

let test_repair_backtracking () =
  let tour = [ 0; 2; 3; 4; 1; 7; 6; 5 ] in
  check_bool "tour valid" true (Walks.is_closed_walk theta tour);
  let spiked = Walks.splice tour 1 [ 2; 0 ] in
  check_bool "spiked backtracks" false (Walks.is_non_backtracking theta spiked);
  match Nb_walks.repair_backtracking theta spiked with
  | Some fixed ->
      check_bool "repaired" true (Walks.is_non_backtracking theta fixed);
      check_bool "parity kept" true
        (List.length fixed mod 2 = List.length spiked mod 2)
  | None -> Alcotest.fail "repairable in a two-cycle graph"

let test_repair_idempotent () =
  let tour = [ 0; 2; 3; 4; 1; 7; 6; 5 ] in
  match Nb_walks.repair_backtracking theta tour with
  | Some fixed -> Alcotest.(check int_list) "already fine" tour fixed
  | None -> Alcotest.fail "non-backtracking input"

let test_lift () =
  let suite = D_trivial.suite ~k:2 in
  let inst = certify_exn suite wm in
  let nbhd =
    Neighborhood.build ~mode:Neighborhood.Identified suite.Decoder.dec [ inst ]
  in
  let tour = [ 0; 2; 3; 4; 5; 6; 1; 11; 10; 9; 8; 7 ] in
  (match Nb_walks.lift nbhd inst tour with
  | Some lifted ->
      check_int "length preserved" (List.length tour) (List.length lifted);
      let views = List.map (Neighborhood.view nbhd) lifted in
      check_bool "view walk non-backtracking" true
        (Nb_walks.is_non_backtracking_views views)
  | None -> Alcotest.fail "all views present");
  (* an instance not in V lifts to None *)
  let stranger = Instance.make wm ~labels:(Array.make 12 "junk") in
  check_bool "unknown views" true (Nb_walks.lift nbhd stranger tour = None)

let test_is_non_backtracking_views () =
  let suite = D_trivial.suite ~k:2 in
  let inst = certify_exn suite (Builders.cycle 6) in
  let views = Array.to_list (View.extract_all inst ~r:1) in
  check_bool "cycle of views" true (Nb_walks.is_non_backtracking_views views);
  let bad = [ List.nth views 0; List.nth views 1; List.nth views 0; List.nth views 1 ] in
  check_bool "backtracking detected" false (Nb_walks.is_non_backtracking_views bad)

let suite =
  [
    case "far node" test_far_node;
    case "edge expansion on C12" test_edge_expansion;
    case "edge expansion on theta" test_edge_expansion_theta;
    case "edge expansion requires an edge" test_edge_expansion_requires_edge;
    case "full walk expansion" test_expand_closed_walk;
    case "odd nb closed walks" test_odd_nb_closed_walk;
    case "repair backtracking" test_repair_backtracking;
    case "repair is identity on good walks" test_repair_idempotent;
    case "lift to V(D,n)" test_lift;
    case "view-walk non-backtracking" test_is_non_backtracking_views;
  ]
