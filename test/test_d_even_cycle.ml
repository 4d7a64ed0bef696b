open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let dec = D_even_cycle.decoder

let honest n =
  certify_exn D_even_cycle.suite (Builders.cycle n)

let test_honest_accepted () =
  List.iter
    (fun n -> check_bool "accepted" true (Decoder.accepts_all dec (honest n)))
    [ 4; 6; 8; 10 ]

let test_prover_refuses () =
  check_bool "odd cycle" true (D_even_cycle.prover (Instance.make (c5 ())) = None);
  check_bool "path" true (D_even_cycle.prover (Instance.make (Builders.path 4)) = None)

let test_edge_coloring_proper () =
  let i = honest 6 in
  (* adjacent certificates claim different colors on the shared edge's
     two sides is FALSE - they claim the SAME color; and each node's two
     edges have different colors *)
  Array.iter
    (fun s ->
      match Certificate.fields s with
      | [ _; _; c1; _; _; c2 ] -> check_bool "c1 <> c2" true (c1 <> c2)
      | _ -> Alcotest.fail "unexpected format")
    i.Instance.labels

let test_wrong_color_rejected () =
  let i = honest 4 in
  let lab = Array.copy i.Instance.labels in
  (* flip one color bit in node 0's certificate *)
  let flip s =
    match Certificate.fields s with
    | [ a; b; c1; d; e; c2 ] ->
        Certificate.join [ a; b; (if c1 = "0" then "1" else "0"); d; e; c2 ]
    | _ -> assert false
  in
  lab.(0) <- flip lab.(0);
  check_bool "tampered certificate caught" false
    (Decoder.accepts_all dec (Instance.with_labels i lab))

let test_wrong_far_port_rejected () =
  let i = honest 4 in
  let lab = Array.copy i.Instance.labels in
  let swap s =
    match Certificate.fields s with
    | [ a; q1; c1; d; q2; c2 ] ->
        Certificate.join [ a; (if q1 = "1" then "2" else "1"); c1; d; q2; c2 ]
    | _ -> assert false
  in
  lab.(1) <- swap lab.(1);
  check_bool "port mismatch caught" false
    (Decoder.accepts_all dec (Instance.with_labels i lab))

let test_degree_check () =
  (* on a path, the leaf has degree 1: every certificate is rejected
     there *)
  let g = Builders.path 3 in
  let views = View.extract_all (Instance.make g ~labels:(Array.make 3 (List.hd D_even_cycle.alphabet))) ~r:1 in
  check_bool "leaf rejected" false (dec.Decoder.accepts views.(0))

let test_monochromatic_rejected () =
  (* all edges color 0: c1 = c2 is malformed at every node *)
  let g = Builders.cycle 4 in
  (* "1:q1:c1:2:q2:c2" with c1 = c2: the decoder's parser must reject it *)
  let lab = Array.make 4 "1:2:0:2:1:0" in
  let i = Instance.make g ~labels:lab in
  check_bool "monochromatic rejected" false
    (Array.exists (fun b -> b) (Decoder.run dec i))

let test_alphabet () =
  check_int "8 well-formed + junk" 9 (List.length D_even_cycle.alphabet);
  check_bool "junk present" true (List.mem Decoder.junk D_even_cycle.alphabet)

let test_soundness_c3_exhaustive () =
  check_bool "no accepted labeling of C3" true
    (Prover.find_accepted dec ~alphabet:D_even_cycle.alphabet
       (Instance.make (Builders.cycle 3))
    = None)

let test_random_ports () =
  let r = rng () in
  for _ = 1 to 5 do
    let g = Builders.cycle 6 in
    let inst = Instance.make g ~ports:(Port.random r g) in
    match D_even_cycle.prover inst with
    | Some lab ->
        check_bool "accepted under random ports" true
          (Decoder.accepts_all dec (Instance.with_labels inst lab))
    | None -> Alcotest.fail "prover works for all ports"
  done

let suite =
  [
    case "honest certificates accepted" test_honest_accepted;
    case "prover refuses non-promise" test_prover_refuses;
    case "certificates 2-edge-color" test_edge_coloring_proper;
    case "tampered color rejected" test_wrong_color_rejected;
    case "tampered far port rejected" test_wrong_far_port_rejected;
    case "degree enforced" test_degree_check;
    case "monochromatic certificates rejected" test_monochromatic_rejected;
    case "alphabet" test_alphabet;
    case "C3 soundness exhaustive" test_soundness_c3_exhaustive;
    case "random port assignments" test_random_ports;
  ]

let test_large_ring_scales () =
  (* the substrate stays near-linear: certify and verify a 2000-ring *)
  let inst = honest 2000 in
  check_bool "accepted" true (Decoder.accepts_all dec inst)

let suite = suite @ [ case "large ring scales" test_large_ring_scales ]
