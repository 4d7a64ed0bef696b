open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let trivial = D_trivial.suite ~k:2

let test_find_accepted_positive () =
  let i = Instance.make (Builders.path 4) in
  match
    Prover.find_accepted trivial.Decoder.dec
      ~alphabet:(trivial.Decoder.adversary_alphabet i)
      i
  with
  | Some lab ->
      check_bool "accepted" true
        (Decoder.accepts_all trivial.Decoder.dec (Instance.with_labels i lab))
  | None -> Alcotest.fail "P4 certifiable"

let test_find_accepted_negative () =
  let i = Instance.make (c5 ()) in
  check_bool "C5 has no accepted labeling" true
    (Prover.find_accepted trivial.Decoder.dec
       ~alphabet:(trivial.Decoder.adversary_alphabet i)
       i
    = None)

let test_count_accepted () =
  (* P2 with alphabet {0,1,junk}: accepted labelings are 01 and 10 *)
  let i = Instance.make (Builders.path 2) in
  check_int "two proper colorings" 2
    (count_accepted trivial.Decoder.dec
       ~alphabet:(trivial.Decoder.adversary_alphabet i)
       i);
  (* C4: proper 2-colorings of a 4-cycle: 2 *)
  let c = Instance.make (c4 ()) in
  check_int "C4" 2
    (count_accepted trivial.Decoder.dec
       ~alphabet:(trivial.Decoder.adversary_alphabet c)
       c)

let test_count_matches_brute_force () =
  let i = Instance.make (Builders.path 3) in
  let alphabet = trivial.Decoder.adversary_alphabet i in
  let brute = ref 0 in
  Labeling.iter_all ~alphabet (Builders.path 3) (fun lab ->
      if Decoder.accepts_all trivial.Decoder.dec (Instance.with_labels i (Array.copy lab))
      then incr brute);
  check_int "pruned = brute force" !brute
    (count_accepted trivial.Decoder.dec ~alphabet i)

let test_iter_accepted_fresh_arrays () =
  let i = Instance.make (Builders.path 2) in
  let seen = ref [] in
  Prover.iter_accepted trivial.Decoder.dec
    ~alphabet:(trivial.Decoder.adversary_alphabet i)
    i
    (fun lab -> seen := lab :: !seen);
  check_int "distinct labelings" 2
    (List.length (List.sort_uniq Stdlib.compare !seen))

let test_degree_one_accepted_count () =
  (* P2: accepted degree-one labelings are exactly (bot, top), (top, bot),
     (0,1), (1,0) *)
  let i = Instance.make (Builders.path 2) in
  check_int "four accepted" 4
    (count_accepted D_degree_one.decoder ~alphabet:D_degree_one.alphabet i)

let suite =
  [
    case "find accepted (positive)" test_find_accepted_positive;
    case "find accepted (negative)" test_find_accepted_negative;
    case "count accepted" test_count_accepted;
    case "count matches brute force" test_count_matches_brute_force;
    case "iter yields fresh arrays" test_iter_accepted_fresh_arrays;
    case "degree-one accepted count on P2" test_degree_one_accepted_count;
  ]
