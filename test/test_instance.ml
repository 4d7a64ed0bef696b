open Lcp_graph
open Lcp_local
open Helpers

let test_make_defaults () =
  let i = Instance.make (Builders.path 3) in
  check_bool "valid" true (instance_valid i);
  check_int "order" 3 (Instance.order i);
  Alcotest.(check string) "default labels" "" i.Instance.labels.(0)

let test_make_rejects () =
  let g = Builders.path 3 in
  (try
     ignore (Instance.make g ~labels:[| "a" |]);
     Alcotest.fail "expected label arity failure"
   with Invalid_argument _ -> ());
  (try
     ignore (Instance.make g ~ids:(Ident.of_array [| 1; 2 |]));
     Alcotest.fail "expected id arity failure"
   with Invalid_argument _ -> ())

let test_with () =
  let i = Instance.make (Builders.path 3) in
  let i2 = Instance.with_labels i [| "a"; "b"; "c" |] in
  Alcotest.(check string) "labels replaced" "b" i2.Instance.labels.(1);
  Alcotest.(check string) "original untouched" "" i.Instance.labels.(1);
  let i3 = Instance.with_ids i (Ident.of_array [| 7; 8; 9 |]) in
  check_int "ids replaced" 8 (Ident.id i3.Instance.ids 1)

let test_random () =
  let i = Instance.random (rng ()) (Builders.grid 3 3) in
  check_bool "valid" true (instance_valid i);
  check_int "poly bound" 81 i.Instance.ids.Ident.bound

let suite =
  [
    case "make with defaults" test_make_defaults;
    case "make rejects inconsistencies" test_make_rejects;
    case "with_labels / with_ids" test_with;
    case "random" test_random;
  ]
