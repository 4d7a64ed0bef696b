open Lcp_graph
open Lcp_local
open Helpers

let test_const_of_list () =
  let g = Builders.path 3 in
  Alcotest.(check (array string)) "const" [| "x"; "x"; "x" |] (Labeling.const g "x")

let test_max_bits () =
  check_int "bits" 24 (Labeling.max_bits [| "a"; "abc"; "" |]);
  check_int "empty" 0 (Labeling.max_bits [| ""; "" |])

let test_iter_all () =
  let g = Builders.path 3 in
  let count = ref 0 in
  Labeling.iter_all ~alphabet:[ "0"; "1" ] g (fun _ -> incr count);
  check_int "2^3" 8 !count;
  check_int "count function" 8 (Labeling.count ~alphabet:[ "0"; "1" ] g)

let test_iter_all_copies () =
  let g = Builders.path 2 in
  let seen = ref [] in
  Labeling.iter_all ~alphabet:[ "a"; "b" ] g (fun lab ->
      seen := Array.copy lab :: !seen);
  check_int "4 labelings" 4 (List.length (List.sort_uniq Stdlib.compare !seen))

let test_backtracking_prune () =
  let g = Builders.path 3 in
  (* prune any branch that assigns "1" to node 0 *)
  let count = ref 0 in
  Labeling.iter_backtracking_ranked ~alphabet:[ "0"; "1" ] ~order:[| 0; 1; 2 |] g
    ~prune:(fun v lab _ -> v = 0 && lab.(0) = "1")
    (fun _ _ -> incr count);
  check_int "half the space" 4 !count

let test_backtracking_order () =
  let g = Builders.path 3 in
  let alphabet = [ "0"; "1" ] in
  (* a reordered backtracking visit covers exactly the full space *)
  let seen = ref [] in
  Labeling.iter_backtracking_ranked ~alphabet ~order:[| 2; 0; 1 |] g
    ~prune:(fun _ _ _ -> false)
    (fun lab _ -> seen := Array.copy lab :: !seen);
  let all = ref [] in
  Labeling.iter_all ~alphabet g (fun lab -> all := Array.copy lab :: !all);
  check_bool "same labeling set" true
    (List.sort_uniq Stdlib.compare !seen = List.sort_uniq Stdlib.compare !all);
  (* prune receives the step index, not the node: step 0 assigns node 2 *)
  let count = ref 0 in
  Labeling.iter_backtracking_ranked ~alphabet ~order:[| 2; 0; 1 |] g
    ~prune:(fun i lab _ -> i = 0 && lab.(2) = "1")
    (fun _ _ -> incr count);
  check_int "pruning on node 2 at step 0 halves the space" 4 !count;
  (* a non-permutation order is rejected *)
  check_bool "duplicate order rejected" true
    (try
       Labeling.iter_backtracking_ranked ~alphabet ~order:[| 0; 0; 1 |] g
         ~prune:(fun _ _ _ -> false)
         (fun _ _ -> ());
       false
     with Invalid_argument _ -> true)

let test_count_saturates () =
  (* 10^40 labelings overflow a 63-bit int: count clamps to max_int
     instead of wrapping, so budget guards stay monotone *)
  let g = Builders.path 40 in
  let alphabet = List.init 10 string_of_int in
  check_int "saturates at max_int" max_int (Labeling.count ~alphabet g);
  check_int "small spaces still exact" 8
    (Labeling.count ~alphabet:[ "0"; "1" ] (Builders.path 3))

let test_empty_alphabet () =
  let g = Builders.path 2 in
  let count = ref 0 in
  Labeling.iter_all ~alphabet:[] g (fun _ -> incr count);
  check_int "no labelings" 0 !count

let test_random () =
  let g = Builders.path 5 in
  let lab = Labeling.random (rng ()) ~alphabet:[ "x"; "y" ] g in
  check_int "length" 5 (Array.length lab);
  check_bool "in alphabet" true (Array.for_all (fun s -> s = "x" || s = "y") lab)

let suite =
  [
    case "const / of_list" test_const_of_list;
    case "max_bits" test_max_bits;
    case "iter_all count" test_iter_all;
    case "iter_all yields distinct labelings" test_iter_all_copies;
    case "backtracking prune" test_backtracking_prune;
    case "backtracking with explicit order" test_backtracking_order;
    case "count saturates instead of overflowing" test_count_saturates;
    case "empty alphabet" test_empty_alphabet;
    case "random" test_random;
  ]
