open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let dec = D_edge_bit.decoder

let honest n = certify_exn D_edge_bit.suite (Builders.cycle n)

let test_honest_accepted () =
  List.iter
    (fun n -> check_bool "accepted" true (Decoder.accepts_all dec (honest n)))
    [ 4; 6; 8; 10 ]

let test_radius () = check_int "two rounds" 2 dec.Decoder.radius

let test_one_bit () =
  let i = honest 8 in
  check_bool "single character certificates" true
    (Array.for_all (fun s -> String.length s = 1) i.Instance.labels)

let test_prover_refuses () =
  check_bool "odd ring" true (D_edge_bit.suite.Decoder.prover (Instance.make (c5 ())) = None);
  check_bool "path" true (D_edge_bit.suite.Decoder.prover (Instance.make (Builders.path 5)) = None)

let test_flip_detected () =
  (* flipping one bit breaks the alternation system in some window *)
  let i = honest 6 in
  let lab = Array.copy i.Instance.labels in
  lab.(2) <- (if lab.(2) = "0" then "1" else "0");
  check_bool "tampering caught" false
    (Decoder.accepts_all dec (Instance.with_labels i lab))

let test_junk_rejected () =
  let i = honest 4 in
  let lab = Array.copy i.Instance.labels in
  lab.(1) <- Decoder.junk;
  let verdicts = Decoder.run dec (Instance.with_labels i lab) in
  check_bool "neighborhood rejects" false (Array.for_all (fun b -> b) verdicts)

let test_degree_enforced () =
  (* on a path, interior windows see degree-1 interior nodes: reject *)
  let i = Instance.make (Builders.path 5) ~labels:(Array.make 5 "0") in
  check_bool "non-cycles rejected" false
    (Array.for_all (fun b -> b) (Decoder.run dec i))

let test_soundness_c7_all_ports () =
  let g = Builders.cycle 7 in
  check_bool "C7 never convinced (all ports)" true
    (List.for_all
       (fun prt ->
         Prover.find_accepted dec ~alphabet:D_edge_bit.alphabet
           (Instance.make g ~ports:prt)
         = None)
       (Port.enumerate g))

let test_random_ports_completeness () =
  let r = rng () in
  for _ = 1 to 5 do
    let g = Builders.cycle 8 in
    let inst = Instance.make g ~ports:(Port.random r g) in
    match D_edge_bit.suite.Decoder.prover inst with
    | Some lab ->
        check_bool "accepted under random ports" true
          (Decoder.accepts_all dec (Instance.with_labels inst lab))
    | None -> Alcotest.fail "prover works for all ports"
  done

let test_hiding () =
  let fam =
    Neighborhood.exhaustive_family D_edge_bit.suite ~graphs:[ Builders.cycle 6 ]
      ~ports:`All ()
  in
  check_bool "hiding" true (Hiding.is_hiding_on ~k:2 dec fam)

let suite =
  [
    case "honest certificates accepted" test_honest_accepted;
    case "two rounds" test_radius;
    case "one-bit certificates" test_one_bit;
    case "prover refuses non-promise" test_prover_refuses;
    case "bit flip detected" test_flip_detected;
    case "junk rejected" test_junk_rejected;
    case "degree enforced" test_degree_enforced;
    case "C7 soundness over all ports" test_soundness_c7_all_ports;
    case "random ports completeness" test_random_ports_completeness;
    case "hiding" test_hiding;
  ]
