open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let trivial = D_trivial.suite ~k:2

let test_build_basic () =
  let i = certify_exn trivial (Builders.path 4) in
  let nbhd = Neighborhood.build trivial.Decoder.dec [ i ] in
  (* anonymous mode: P4 colored 0101 has views: end-0, end-1?, interior
     01|0... count classes rather than guess: at least 2, at most 4 *)
  check_bool "views interned" true (Neighborhood.order nbhd >= 2);
  check_bool "has edges" true (Neighborhood.size nbhd >= 1);
  check_bool "bipartite" true (Neighborhood.is_k_colorable nbhd ~k:2)

let test_build_skips_rejected () =
  let bad =
    Instance.make (Builders.path 4) ~labels:[| "0"; "0"; "1"; "0" |]
  in
  let nbhd = Neighborhood.build trivial.Decoder.dec [ bad ] in
  check_int "nothing interned" 0 (Neighborhood.order nbhd)

let test_build_skips_non_bipartite () =
  (* even a unanimously-accepted labeling of a no-instance must not
     enter V: only yes-instances count *)
  let all = Decoder.make ~name:"all" ~radius:1 ~anonymous:true (fun _ -> true) in
  let nbhd = Neighborhood.build all [ Instance.make (c5 ()) ] in
  check_int "no-instance excluded" 0 (Neighborhood.order nbhd)

let test_dedup_across_instances () =
  let i1 = certify_exn trivial (Builders.path 4) in
  let nbhd1 = Neighborhood.build trivial.Decoder.dec [ i1 ] in
  let nbhd2 = Neighborhood.build trivial.Decoder.dec [ i1; i1 ] in
  check_int "same classes" (Neighborhood.order nbhd1) (Neighborhood.order nbhd2)

let test_find () =
  let i = certify_exn trivial (Builders.path 4) in
  let nbhd = Neighborhood.build trivial.Decoder.dec [ i ] in
  let v = View.extract i ~r:1 1 in
  check_bool "present" true (Neighborhood.find nbhd v <> None);
  let foreign = View.extract (Instance.make (Builders.path 4) ~labels:[| "junk"; "junk"; "junk"; "junk" |]) ~r:1 1 in
  check_bool "absent" true (Neighborhood.find nbhd foreign = None)

let test_modes () =
  let i1 = certify_exn trivial (Builders.path 4) in
  let ids = Ident.of_array [| 4; 3; 2; 1 |] in
  let i2 = Instance.with_ids i1 ids in
  (* identified mode distinguishes the re-identified copies, anonymous
     does not *)
  let anon = Neighborhood.build ~mode:Neighborhood.Anonymous trivial.Decoder.dec [ i1; i2 ] in
  let ident = Neighborhood.build ~mode:Neighborhood.Identified trivial.Decoder.dec [ i1; i2 ] in
  check_bool "identified has more classes" true
    (Neighborhood.order ident > Neighborhood.order anon)

let test_sources () =
  let i = certify_exn trivial (Builders.path 4) in
  let nbhd = Neighborhood.build trivial.Decoder.dec [ i; i ] in
  let total =
    Array.fold_left (fun acc l -> acc + List.length l) 0 nbhd.Neighborhood.sources
  in
  check_int "every (instance, node) recorded" 8 total

let test_exhaustive_family () =
  let fam =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 4 ] ()
  in
  (* canonical ports: accepted labelings of C4 = two 2-edge-colorings *)
  check_int "C4 canonical family" 2 (List.length fam);
  let fam_ports =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 4 ]
      ~ports:`All ()
  in
  check_int "16 port assignments x 2" 32 (List.length fam_ports);
  check_bool "all accepted" true
    (List.for_all (Decoder.accepts_all D_even_cycle.decoder) fam_ports)

let test_exhaustive_family_filters () =
  let fam =
    Neighborhood.exhaustive_family D_even_cycle.suite
      ~graphs:[ Builders.cycle 5; Builders.path 3 ] ()
  in
  check_int "outside promise/bipartite filtered" 0 (List.length fam)

let test_odd_cycle_and_coloring () =
  let fam =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 6 ]
      ~ports:`All ()
  in
  let nbhd = Neighborhood.build D_even_cycle.decoder fam in
  (match Neighborhood.odd_cycle nbhd with
  | Some c ->
      check_bool "odd" true (List.length c mod 2 = 1);
      check_bool "loop or cycle in V" true
        (match c with
        | [ i ] -> List.mem i nbhd.Neighborhood.loops
        | w -> Coloring.odd_closed_walk_check nbhd.Neighborhood.graph w)
  | None -> Alcotest.fail "expected odd cycle");
  (* independently of the loops, Fig. 6's odd cycle lives in the
     loop-free part of the graph *)
  (match Coloring.odd_cycle nbhd.Neighborhood.graph with
  | Some c ->
      check_bool "plain odd cycle too" true
        (Coloring.odd_closed_walk_check nbhd.Neighborhood.graph c)
  | None -> Alcotest.fail "expected a plain odd cycle as well");
  check_bool "hence no 2-coloring" false (Neighborhood.is_k_colorable nbhd ~k:2)

let test_to_dot () =
  let i = certify_exn trivial (Builders.path 4) in
  let nbhd = Neighborhood.build trivial.Decoder.dec [ i ] in
  check_bool "dot non-empty" true (String.length (Neighborhood.to_dot nbhd) > 0)

let suite =
  [
    case "build basic" test_build_basic;
    case "rejected instances skipped" test_build_skips_rejected;
    case "non-bipartite instances skipped" test_build_skips_non_bipartite;
    case "dedup across instances" test_dedup_across_instances;
    case "find" test_find;
    case "anonymous vs identified modes" test_modes;
    case "sources recorded" test_sources;
    case "exhaustive family" test_exhaustive_family;
    case "exhaustive family filters" test_exhaustive_family_filters;
    case "odd cycle detection" test_odd_cycle_and_coloring;
    case "dot export" test_to_dot;
  ]

let test_loops_detected () =
  (* an accept-all decoder on a 2-node instance with identical labels:
     the two anonymous views coincide, and they are adjacent - a loop *)
  let all = Decoder.make ~name:"all" ~radius:1 ~anonymous:true (fun _ -> true) in
  let inst = Instance.make (Builders.path 2) ~labels:[| "x"; "x" |] in
  let nbhd = Neighborhood.build ~mode:Neighborhood.Anonymous all [ inst ] in
  check_int "one class" 1 (Neighborhood.order nbhd);
  check_int "looped" 1 (List.length nbhd.Neighborhood.loops);
  check_bool "never k-colorable" false (Neighborhood.is_k_colorable nbhd ~k:5);
  Alcotest.(check (option (list int))) "loop is the odd walk witness"
    (Some [ 0 ]) (Neighborhood.odd_cycle nbhd);
  check_bool "no 2-coloring" false (Neighborhood.is_k_colorable nbhd ~k:2)

let test_no_loops_with_ids () =
  (* identified mode cannot loop: adjacent centers have distinct ids *)
  let all = Decoder.make ~name:"all" ~radius:1 ~anonymous:false (fun _ -> true) in
  let inst = Instance.make (Builders.path 2) ~labels:[| "x"; "x" |] in
  let nbhd = Neighborhood.build ~mode:Neighborhood.Identified all [ inst ] in
  check_int "no loops" 0 (List.length nbhd.Neighborhood.loops)

let test_view_radius_parameter () =
  let i = certify_exn trivial (Builders.path 5) in
  let nb1 = Neighborhood.build trivial.Decoder.dec [ i ] in
  let nb2 = Neighborhood.build ~view_radius:2 trivial.Decoder.dec [ i ] in
  check_int "records the radius" 2 nb2.Neighborhood.view_radius;
  check_bool "larger radius distinguishes more views" true
    (Neighborhood.order nb2 >= Neighborhood.order nb1)

let suite =
  suite
  @ [
      case "self-loops detected" test_loops_detected;
      case "identified mode cannot loop" test_no_loops_with_ids;
      case "view_radius parameter" test_view_radius_parameter;
    ]
