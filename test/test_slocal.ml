open Lcp_graph
open Lcp_local
open Helpers

let test_greedy_cycle () =
  let inst = Instance.make (Builders.cycle 7) in
  let out = Slocal.execute_canonical (Slocal.greedy_coloring ~radius:1) inst in
  check_bool "proper" true (Coloring.is_proper (Builders.cycle 7) out);
  check_bool "at most 3 colors" true (Array.for_all (fun c -> c <= 2) out)

let test_greedy_any_order () =
  let g = Builders.petersen () in
  let inst = Instance.make g in
  let n = Graph.order g in
  let orders =
    [
      List.init n (fun i -> i);
      List.rev (List.init n (fun i -> i));
      List.init n (fun i -> (i + 3) mod n);
      [ 5; 0; 7; 2; 9; 4; 6; 1; 8; 3 ];
    ]
  in
  List.iter
    (fun order ->
      let out = Slocal.execute (Slocal.greedy_coloring ~radius:1) inst ~order in
      check_bool "proper under arbitrary order" true (Coloring.is_proper g out))
    orders

let test_first_fit_k_stuck () =
  (* first-fit with 2 colors can get stuck on a path under a bad order:
     color both neighbors of a node differently first *)
  let inst = Instance.make (Builders.path 3) in
  let out = Slocal.execute (Slocal.first_fit_k ~radius:1 ~k:2) inst ~order:[ 0; 2; 1 ] in
  (* 0 -> color 0, 2 -> color 0, 1 -> must avoid 0 -> color 1: fine.
     use a path of 5 with a genuinely conflicting order *)
  ignore out;
  let inst5 = Instance.make (Builders.path 5) in
  let out5 =
    Slocal.execute (Slocal.first_fit_k ~radius:1 ~k:2) inst5 ~order:[ 0; 3; 1; 2; 4 ]
  in
  (* 0->0, 3->0, 1->1, 2 sees 1 (color 1) and 3 (color 0): stuck *)
  check_bool "stuck marker" true (Array.exists (fun c -> c = -1) out5)

let test_order_validation () =
  let inst = Instance.make (Builders.path 3) in
  (try
     ignore (Slocal.execute (Slocal.greedy_coloring ~radius:1) inst ~order:[ 0; 1 ]);
     Alcotest.fail "expected order failure"
   with Invalid_argument _ -> ())

let test_of_local_algo () =
  let inst = Instance.make (Builders.star 3) in
  let algo = Local_algo.make ~name:"deg" ~radius:1 View.center_degree in
  let out = Slocal.execute_canonical (Slocal.of_local_algo algo) inst in
  Alcotest.(check int_list) "degrees" [ 3; 1; 1; 1 ] (Array.to_list out)

let test_prev_outputs_visible () =
  (* a node that copies the first processed neighbor's output *)
  let copycat =
    {
      Slocal.name = "copy";
      radius = 1;
      step =
        (fun view prev ->
          let g = view.View.graph in
          match
            List.filter_map (fun w -> prev.(w))
              (Array.to_list (Graph.neighbors_array g 0))
          with
          | c :: _ -> c + 1
          | [] -> 0);
    }
  in
  let inst = Instance.make (Builders.path 4) in
  let out = Slocal.execute copycat inst ~order:[ 0; 1; 2; 3 ] in
  Alcotest.(check int_list) "chained" [ 0; 1; 2; 3 ] (Array.to_list out)

let suite =
  [
    case "greedy on a cycle" test_greedy_cycle;
    case "greedy under arbitrary orders" test_greedy_any_order;
    case "first-fit k can get stuck" test_first_fit_k_stuck;
    case "order validation" test_order_validation;
    case "local algorithms lift" test_of_local_algo;
    case "previous outputs visible" test_prev_outputs_visible;
  ]
