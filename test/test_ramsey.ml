open Lcp_graph
open Lcp_local
open Lcp
open Helpers

(* Ramsey's internal steps (subset enumeration, tuple types, their
   memoized coloring) are observed through [monochromatic_ids]. On the
   one-node shape, tuples are single identifiers, and a decoder that
   reads the center's identifier colors them directly. *)
let one_node = [ View.extract (Instance.make (Graph.of_edges 1 [])) ~r:1 0 ]

let id_decoder ?(calls = ref 0) name f =
  Decoder.make ~name ~radius:1 ~anonymous:false (fun view ->
      incr calls;
      f (View.center_id view))

let accept_all = id_decoder "accept-all" (fun _ -> true)
let odd_id ?calls () = id_decoder ?calls "odd-id" (fun i -> i mod 2 = 1)

let test_combinations () =
  (* every subset is monochromatic under a constant type, so the first
     size-subset of the sorted universe comes back *)
  let mono dec universe size =
    Ramsey.monochromatic_ids dec ~shapes:one_node ~universe ~size
  in
  Alcotest.(check (option int_list)) "first 2-subset" (Some [ 1; 2 ])
    (mono accept_all [ 4; 2; 3; 1 ] 2);
  Alcotest.(check (option int_list)) "0-subset" (Some []) (mono accept_all [ 1; 2; 3 ] 0);
  Alcotest.(check (option int_list)) "no 4-subset of 3" None
    (mono accept_all [ 1; 2; 3 ] 4);
  (* subsets are tried in lexicographic order *)
  Alcotest.(check (option int_list)) "first odd triple" (Some [ 1; 3; 5 ])
    (mono (odd_id ()) (List.init 7 (fun i -> i + 1)) 3)

let test_monochromatic_subset () =
  let universe = List.init 7 (fun i -> i + 1) in
  Alcotest.(check (option int_list)) "the four odd ids" (Some [ 1; 3; 5; 7 ])
    (Ramsey.monochromatic_ids (odd_id ()) ~shapes:one_node ~universe ~size:4);
  (* four odd and three even ids: no 5-set has one parity *)
  Alcotest.(check (option int_list)) "none of size 5" None
    (Ramsey.monochromatic_ids (odd_id ()) ~shapes:one_node ~universe ~size:5)

let test_arrows () =
  check_bool "6 -> (3,3)" true (Ramsey.arrows ~n:6 ~s:3 ~t:3);
  check_bool "5 -/-> (3,3)" false (Ramsey.arrows ~n:5 ~s:3 ~t:3);
  check_bool "3 -> (3,2)" true (Ramsey.arrows ~n:3 ~s:3 ~t:2)

let test_ramsey_number () =
  check_int "R(3,3)" 6 (Ramsey.ramsey_number ~s:3 ~t:3);
  check_int "R(2,4)" 4 (Ramsey.ramsey_number ~s:2 ~t:4)

let quirky =
  let trivial = D_trivial.decoder ~k:2 in
  Decoder.make ~name:"quirky" ~radius:1 ~anonymous:false (fun view ->
      View.center_id view mod 3 = 0 || trivial.Decoder.accepts view)

let shapes () =
  let p4 = Instance.make (Builders.path 4) in
  let good = Instance.with_labels p4 [| "0"; "1"; "0"; "1" |] in
  let bad = Instance.with_labels p4 [| "0"; "0"; "0"; "0" |] in
  Array.to_list (View.extract_all good ~r:1) @ Array.to_list (View.extract_all bad ~r:1)

let test_decoder_type () =
  (* on multiples of 3 quirky accepts every shape, so all tuples share
     a type; 3 in a center position changes the type of a tuple *)
  let shapes = shapes () in
  Alcotest.(check (option int_list)) "multiples of 3 are monochromatic"
    (Some [ 3; 6; 9; 12 ])
    (Ramsey.monochromatic_ids quirky ~shapes ~universe:[ 3; 6; 9; 12 ] ~size:4);
  Alcotest.(check (option int_list)) "quirk visible" None
    (Ramsey.monochromatic_ids quirky ~shapes ~universe:[ 1; 2; 3; 4 ] ~size:4)

let test_type_color_memo () =
  (* the brute force meets each single-id tuple in many subsets, but
     decodes it at most once per shape *)
  let calls = ref 0 in
  ignore
    (Ramsey.monochromatic_ids (odd_id ~calls ()) ~shapes:one_node
       ~universe:(List.init 7 (fun i -> i + 1))
       ~size:5);
  check_bool "at most one decode per tuple and shape" true
    (!calls > 0 && !calls <= 7)

let test_monochromatic_ids_and_reduction () =
  let shapes = shapes () in
  match
    Ramsey.monochromatic_ids quirky ~shapes
      ~universe:(List.init 10 (fun i -> i + 1))
      ~size:5
  with
  | None -> Alcotest.fail "monochromatic set exists (avoid multiples of 3)"
  | Some mono ->
      let d' = Ramsey.order_invariant_decoder quirky ~mono in
      let p4 = Instance.make (Builders.path 4) in
      let good = Instance.with_labels p4 [| "0"; "1"; "0"; "1" |] in
      check_bool "order-invariant" true
        (Checker.is_pass (Checker.order_invariance d' ~trials:15 (rng ()) [ good ]));
      (* on the monochromatic set the quirk is gone: D' behaves like the
         plain trivial verifier *)
      let trivial = D_trivial.decoder ~k:2 in
      let bad = Instance.with_labels p4 [| "0"; "0"; "1"; "0" |] in
      List.iter
        (fun i ->
          Alcotest.(check (array bool))
            "agrees with trivial" (Decoder.run trivial i) (Decoder.run d' i))
        [ good; bad ]

let suite =
  [
    case "combinations" test_combinations;
    case "monochromatic subsets" test_monochromatic_subset;
    case "arrows" test_arrows;
    case "ramsey numbers" test_ramsey_number;
    case "decoder types" test_decoder_type;
    case "type coloring memoized" test_type_color_memo;
    case "monochromatic ids and the induced decoder" test_monochromatic_ids_and_reduction;
  ]
