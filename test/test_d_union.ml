open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let dec = D_union.decoder

let test_tagged_completeness () =
  let p = certify_exn D_union.suite (Builders.path 5) in
  check_bool "H1 member accepted" true (Decoder.accepts_all dec p);
  check_bool "tag 1 used" true
    (Array.for_all (fun s -> s.[0] = '1') p.Instance.labels);
  let c = certify_exn D_union.suite (Builders.cycle 6) in
  check_bool "H2 member accepted" true (Decoder.accepts_all dec c);
  check_bool "tag 2 used" true
    (Array.for_all (fun s -> s.[0] = '2') c.Instance.labels)

let test_mixed_tags_rejected () =
  let p = certify_exn D_union.suite (Builders.path 5) in
  let lab = Array.copy p.Instance.labels in
  lab.(2) <- "2:1:1:0:2:1:1";
  let tampered = Instance.with_labels p lab in
  let verdicts = Decoder.run dec tampered in
  check_bool "node 2 rejected" false verdicts.(2);
  check_bool "a neighbor rejects too" false (verdicts.(1) && verdicts.(3))

let test_untagged_rejected () =
  let i = Instance.make (Builders.path 3) ~labels:[| "0"; "1"; "0" |] in
  check_bool "raw degree-one certs need tags" false
    (Array.exists (fun b -> b) (Decoder.run dec i))

let test_prover_prefers_h1 () =
  (* the pendant cycle is in H1 only *)
  let g = Builders.pendant (Builders.cycle 4) 0 in
  match D_union.suite.Decoder.prover (Instance.make g) with
  | Some lab -> check_bool "tag 1" true (lab.(0).[0] = '1')
  | None -> Alcotest.fail "H1 member certifiable"

let test_prover_refuses () =
  check_bool "C5 refused" true (D_union.suite.Decoder.prover (Instance.make (c5 ())) = None);
  check_bool "theta refused (outside H)" true
    (D_union.suite.Decoder.prover (Instance.make (Builders.theta 2 2 2)) = None)

let test_alphabet_tagged () =
  check_bool "all tagged or junk" true
    (List.for_all
       (fun s -> s = Decoder.junk || s.[0] = '1' || s.[0] = '2')
       D_union.alphabet)

let suite =
  [
    case "tagged completeness" test_tagged_completeness;
    case "mixed tags rejected" test_mixed_tags_rejected;
    case "untagged certificates rejected" test_untagged_rejected;
    case "prover prefers H1" test_prover_prefers_h1;
    case "prover refuses outside H" test_prover_refuses;
    case "alphabet tagged" test_alphabet_tagged;
  ]
