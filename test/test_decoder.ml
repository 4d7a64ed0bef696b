open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let accept_even_id =
  Decoder.make ~name:"even-id" ~radius:1 ~anonymous:false (fun v ->
      View.center_id v mod 2 = 0)

let test_run () =
  let i = Instance.make (Builders.path 4) in
  Alcotest.(check (array bool)) "verdicts" [| false; true; false; true |]
    (Decoder.run accept_even_id i)

let test_accepts_all () =
  let i = Instance.make (Builders.path 4) in
  check_bool "not all" false (Decoder.accepts_all accept_even_id i);
  let all = Decoder.make ~name:"t" ~radius:1 ~anonymous:true (fun _ -> true) in
  check_bool "all" true (Decoder.accepts_all all i)

let test_accepting_nodes () =
  let i = Instance.make (Builders.path 4) in
  Alcotest.(check int_list) "evens" [ 1; 3 ]
    (Array.to_list (snd (Decoder.accepted_subgraph accept_even_id i)))

let test_accepted_subgraph () =
  let i = Instance.make (Builders.cycle 4) in
  let sub, back = Decoder.accepted_subgraph accept_even_id i in
  check_int "two accepting" 2 (Graph.order sub);
  check_int "no edge between 1 and 3" 0 (Graph.size sub);
  Alcotest.(check int_list) "mapping" [ 1; 3 ] (Array.to_list back)

let test_as_local_algo () =
  let i = Instance.make (Builders.path 3) in
  let algo = Decoder.as_local_algo accept_even_id in
  Alcotest.(check (array bool)) "same outputs" (Decoder.run accept_even_id i)
    (Local_algo.run_all algo i)

let test_certify () =
  let suite = D_trivial.suite ~k:2 in
  (match Decoder.certify suite (Instance.make (Builders.path 4)) with
  | Some c -> check_bool "accepted" true (Decoder.accepts_all suite.Decoder.dec c)
  | None -> Alcotest.fail "bipartite certifiable");
  check_bool "no cert for C5" true
    (Decoder.certify suite (Instance.make (c5 ())) = None)

let test_junk_rejected_by_all () =
  List.iter
    (fun (suite : Decoder.suite) ->
      let i =
        Instance.make (Builders.path 3) ~labels:(Array.make 3 Decoder.junk)
      in
      check_bool
        ("junk rejected by " ^ suite.Decoder.dec.Decoder.name)
        false
        (Array.exists (fun b -> b) (Decoder.run suite.Decoder.dec i)))
    [ D_trivial.suite ~k:2; D_degree_one.suite; D_even_cycle.suite;
      D_union.suite; D_shatter.suite; D_watermelon.suite; D_spanning.suite ]

let suite =
  [
    case "run" test_run;
    case "accepts_all" test_accepts_all;
    case "accepting_nodes" test_accepting_nodes;
    case "accepted_subgraph" test_accepted_subgraph;
    case "as_local_algo" test_as_local_algo;
    case "certify" test_certify;
    case "junk rejected everywhere" test_junk_rejected_by_all;
  ]
