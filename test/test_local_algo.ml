open Lcp_graph
open Lcp_local
open Helpers

let degree_algo =
  Local_algo.make ~name:"degree" ~radius:1 View.center_degree

let id_algo = Local_algo.make ~name:"own-id" ~radius:1 View.center_id

let rank_algo =
  (* order-invariant but not anonymous: is my id the local maximum? *)
  Local_algo.make ~name:"local-max" ~radius:1 (fun v ->
      let m = View.size v in
      let mine = View.center_id v in
      let rec go u = u = m || (View.id v u <= mine && go (u + 1)) in
      go 0)

let test_run_all () =
  let i = Instance.make (Builders.star 3) in
  Alcotest.(check int_list) "degrees" [ 3; 1; 1; 1 ]
    (Array.to_list (Local_algo.run_all degree_algo i))

let test_anonymous_accepts () =
  let i = Instance.make (Builders.cycle 6) in
  check_bool "degree algo anonymous" true
    (Local_algo.is_anonymous_on degree_algo i ~trials:15 (rng ()))

let test_anonymous_rejects () =
  let i = Instance.make (Builders.cycle 6) in
  check_bool "id algo not anonymous" false
    (Local_algo.is_anonymous_on id_algo i ~trials:15 (rng ()))

let test_order_invariant () =
  let i = Instance.make (Builders.path 5) in
  check_bool "rank algo order-invariant" true
    (Local_algo.is_order_invariant_on rank_algo i ~trials:15 (rng ()));
  check_bool "rank algo not anonymous" false
    (Local_algo.is_anonymous_on rank_algo i ~trials:15 (rng ()));
  check_bool "id algo not order-invariant" false
    (Local_algo.is_order_invariant_on id_algo i ~trials:15 (rng ()))

let test_constant () =
  let a = Local_algo.make ~name:"c" ~radius:1 (fun _ -> 42) in
  let i = Instance.make (Builders.path 3) in
  Alcotest.(check int_list) "constants" [ 42; 42; 42 ]
    (Array.to_list (Local_algo.run_all a i))

let test_coloring_output () =
  let i = Instance.make (Builders.path 4) in
  let parity =
    Local_algo.make ~name:"id-parity" ~radius:1 (fun v -> View.center_id v mod 2)
  in
  let colors = Local_algo.run_all parity i in
  check_bool "alternates on canonical path" true
    (Coloring.is_proper (Builders.path 4) colors)

let suite =
  [
    case "run_all" test_run_all;
    case "anonymity holds" test_anonymous_accepts;
    case "anonymity refuted" test_anonymous_rejects;
    case "order invariance" test_order_invariant;
    case "constant algo" test_constant;
    case "coloring output" test_coloring_output;
  ]
