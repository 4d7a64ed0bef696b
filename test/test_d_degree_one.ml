open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let dec = D_degree_one.decoder

let path_view labels pos =
  let n = Array.length labels in
  View.extract (Instance.make (Builders.path n) ~labels) ~r:1 pos

let star_view labels pos =
  let k = Array.length labels - 1 in
  View.extract (Instance.make (Builders.star k) ~labels) ~r:1 pos

let test_bot_rules () =
  check_bool "leaf bot with top neighbor" true
    (dec.Decoder.accepts (path_view [| "B"; "T"; "0" |] 0));
  check_bool "bot needs top" false
    (dec.Decoder.accepts (path_view [| "B"; "0"; "1" |] 0));
  check_bool "bot needs degree 1" false
    (dec.Decoder.accepts (path_view [| "T"; "B"; "T" |] 1));
  check_bool "bot rejects bot neighbor" false
    (dec.Decoder.accepts (path_view [| "B"; "B"; "0" |] 0))

let test_top_rules () =
  check_bool "top between bot and color" true
    (dec.Decoder.accepts (path_view [| "B"; "T"; "0" |] 1));
  check_bool "top needs exactly one bot" false
    (dec.Decoder.accepts (path_view [| "B"; "T"; "B" |] 1));
  check_bool "top needs some bot" false
    (dec.Decoder.accepts (path_view [| "0"; "T"; "1" |] 1));
  (* star center: top with one bot and monochromatic other leaves *)
  check_bool "monochromatic colors ok" true
    (dec.Decoder.accepts (star_view [| "T"; "B"; "0"; "0" |] 0));
  check_bool "mixed colors rejected" false
    (dec.Decoder.accepts (star_view [| "T"; "B"; "0"; "1" |] 0))

let test_color_rules () =
  check_bool "alternating colors" true
    (dec.Decoder.accepts (path_view [| "1"; "0"; "1" |] 1));
  check_bool "same color rejected" false
    (dec.Decoder.accepts (path_view [| "1"; "1"; "0" |] 1));
  check_bool "one top neighbor allowed" true
    (dec.Decoder.accepts (path_view [| "T"; "0"; "1" |] 1));
  check_bool "two top neighbors rejected" false
    (dec.Decoder.accepts (path_view [| "T"; "0"; "T" |] 1));
  check_bool "bot neighbor rejected for colors" false
    (dec.Decoder.accepts (path_view [| "B"; "0"; "1" |] 1));
  check_bool "junk neighbor rejected" false
    (dec.Decoder.accepts (path_view [| "junk"; "0"; "1" |] 1))

let test_prover_hides_at_leaf () =
  let g = Builders.caterpillar 3 1 in
  let inst = Instance.make g in
  match D_degree_one.prover inst with
  | Some lab ->
      let bots = Array.to_list lab |> List.filter (fun s -> s = "B") in
      let tops = Array.to_list lab |> List.filter (fun s -> s = "T") in
      check_int "one bot" 1 (List.length bots);
      check_int "one top" 1 (List.length tops);
      check_bool "accepted" true
        (Decoder.accepts_all dec (Instance.with_labels inst lab))
  | None -> Alcotest.fail "caterpillar certifiable"

let test_prover_refuses () =
  check_bool "no leaf" true (D_degree_one.prover (Instance.make (c4 ())) = None);
  check_bool "not bipartite" true
    (D_degree_one.prover (Instance.make (Builders.pendant (Builders.cycle 3) 0)) = None)

let test_strong_soundness_spot () =
  (* a triangle with one pendant: however the adversary labels it, the
     triangle can never be fully accepted *)
  let g = Builders.pendant (Builders.cycle 3) 0 in
  let inst = Instance.make g in
  let exception Bad in
  (try
     Labeling.iter_all ~alphabet:D_degree_one.alphabet g (fun lab ->
         let sub, _ =
           Decoder.accepted_subgraph dec (Instance.with_labels inst (Array.copy lab))
         in
         if not (Coloring.is_bipartite sub) then raise Bad);
     ()
   with Bad -> Alcotest.fail "strong soundness violated")

let test_anonymous () =
  let inst = certify_exn D_degree_one.suite (Builders.path 5) in
  check_bool "anonymous" true
    (Checker.is_pass (Checker.anonymity dec ~trials:10 (rng ()) [ inst ]))

let suite =
  [
    case "bot rules" test_bot_rules;
    case "top rules" test_top_rules;
    case "color rules" test_color_rules;
    case "prover hides at one leaf" test_prover_hides_at_leaf;
    case "prover refuses non-promise inputs" test_prover_refuses;
    case "strong soundness spot check" test_strong_soundness_spot;
    case "anonymity" test_anonymous;
  ]
