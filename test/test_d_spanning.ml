open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let dec = D_spanning.decoder

let test_honest_accepted () =
  List.iter
    (fun g ->
      let i = certify_exn D_spanning.suite g in
      check_bool "accepted" true (Decoder.accepts_all dec i))
    [ Builders.path 5; Builders.cycle 6; Builders.grid 3 3; Builders.star 4;
      Graph.disjoint_union (Builders.path 3) (Builders.cycle 4) ]

let test_prover_refuses_odd () =
  check_bool "C5" true (D_spanning.suite.Decoder.prover (Instance.make (c5 ())) = None)

let test_root_identity_checked () =
  (* a lone node claiming distance 0 must carry the root id *)
  let i = Instance.make (Graph.empty 1) ~labels:[| "0:5:0" |] in
  check_bool "foreign root rejected" false ((Decoder.run dec i).(0));
  let ok = Instance.make (Graph.empty 1) ~labels:[| "0:1:0" |] in
  check_bool "own root accepted" true ((Decoder.run dec ok).(0))

let test_distance_layers () =
  (* neighbors at equal claimed distance are impossible in a bipartite
     certificate *)
  let i =
    Instance.make (Builders.path 3)
      ~labels:[| "0:1:0"; "1:1:1"; "0:1:1" |]
  in
  check_bool "equal layers rejected" false ((Decoder.run dec i).(2))

let test_no_parent_rejected () =
  (* positive distance with no closer neighbor *)
  let i =
    Instance.make (Builders.path 2) ~labels:[| "0:1:2"; "1:1:3" |]
  in
  check_bool "orphan rejected" false ((Decoder.run dec i).(0))

let test_color_clash () =
  let i =
    Instance.make (Builders.path 2) ~labels:[| "0:1:0"; "0:1:1" |]
  in
  check_bool "same colors rejected" false ((Decoder.run dec i).(0))

let test_root_disagreement () =
  let i =
    Instance.make (Builders.path 3)
      ~labels:[| "0:1:0"; "1:1:1"; "0:3:2" |]
  in
  check_bool "split roots rejected" false ((Decoder.run dec i).(1))

let test_strong_soundness_random () =
  check_bool "randomized strong soundness" true
    (Checker.is_pass
       (Checker.strong_soundness_random D_spanning.suite ~k:2 ~trials:500 (rng ())
          [ Instance.make (Builders.cycle 5); Instance.make (k4 ()) ]))

let suite =
  [
    case "honest certificates accepted" test_honest_accepted;
    case "prover refuses odd cycles" test_prover_refuses_odd;
    case "root identity" test_root_identity_checked;
    case "distance layering" test_distance_layers;
    case "orphan distances rejected" test_no_parent_rejected;
    case "color clash rejected" test_color_clash;
    case "root disagreement rejected" test_root_disagreement;
    case "randomized strong soundness" test_strong_soundness_random;
  ]
