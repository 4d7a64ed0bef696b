open Lcp_graph
open Lcp_local
open Helpers

let labeled_c6 () =
  Instance.make (Builders.cycle 6)
    ~labels:[| "a"; "b"; "c"; "d"; "e"; "f" |]

let test_extract_ball () =
  let i = labeled_c6 () in
  let v = View.extract i ~r:1 0 in
  check_int "ball size" 3 (View.size v);
  check_int "center dist" 0 (View.distance v 0);
  check_int "center id" 1 (View.center_id v);
  Alcotest.(check string) "center label" "a" (View.center_label v);
  check_int "center degree" 2 (View.center_degree v)

let test_extract_radius_grows () =
  let i = labeled_c6 () in
  check_int "r=2" 5 (View.size (View.extract i ~r:2 0));
  check_int "r=3 covers all" 6 (View.size (View.extract i ~r:3 0));
  check_int "r=10 saturates" 6 (View.size (View.extract i ~r:10 0))

let test_extract_rejects_r0 () =
  (try
     ignore (View.extract (labeled_c6 ()) ~r:0 0);
     Alcotest.fail "expected radius failure"
   with Invalid_argument _ -> ())

let test_fringe_edges_invisible () =
  (* C4 at r=1: the two edges between the center's neighbors and the
     antipode are invisible, and the antipode is outside the ball *)
  let i = Instance.make (Builders.cycle 4) in
  let v = View.extract i ~r:1 0 in
  check_int "ball" 3 (View.size v);
  check_int "edges" 2 (Graph.size v.View.graph);
  (* diamond: the chord between two fringe nodes is invisible *)
  let d = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ] in
  let vd = View.extract (Instance.make d) ~r:1 0 in
  check_int "diamond ball" 3 (View.size vd);
  check_int "only center edges" 2 (Graph.size vd.View.graph)

let test_interior_edges_visible () =
  let i = labeled_c6 () in
  let v = View.extract i ~r:2 0 in
  (* nodes at distance 1 have all their edges visible *)
  let n1 = Option.get (View.find_by_id v 2) in
  check_int "degree of interior node" 2 (Graph.degree v.View.graph n1)

let test_ports_both_ends () =
  let i = Instance.make (Builders.path 3) in
  let v = View.extract i ~r:1 1 in
  let w0 = Option.get (View.find_by_id v 1) in
  check_int "my port" 1 (View.port_of v 0 w0);
  check_int "far port" 1 (View.port_of v w0 0)

let test_center_neighbors_sorted_by_port () =
  let g = Builders.star 3 in
  let ports = [| [| 3; 1; 2 |]; [| 0 |]; [| 0 |]; [| 0 |] |] in
  let i = Instance.make g ~ports in
  let v = View.extract i ~r:1 0 in
  let triples = View.center_neighbors v in
  check_int "three neighbors" 3 (List.length triples);
  Alcotest.(check int_list) "ports ascending" [ 1; 2; 3 ]
    (List.map (fun (_, p, _) -> p) triples);
  (* port 1 leads to node 3 (id 4) *)
  let w, _, _ = List.hd triples in
  check_int "port 1 neighbor id" 4 (View.id v w)

let test_full_degree_known () =
  let i = labeled_c6 () in
  let v = View.extract i ~r:2 0 in
  check_bool "center known" true (View.full_degree_known v 0);
  let fringe = Option.get (View.find_by_id v 3) in
  check_bool "fringe unknown" false (View.full_degree_known v fringe)

let test_equal_and_keys () =
  let i = labeled_c6 () in
  let v0 = View.extract i ~r:1 0 in
  let v0' = View.extract i ~r:1 0 in
  check_bool "reflexive" true (View.equal v0 v0');
  let v1 = View.extract i ~r:1 1 in
  check_bool "different centers differ" false (View.equal v0 v1);
  check_bool "key matches equality" true
    (View.key_identified v0 = View.key_identified v0')

let test_anonymous_key () =
  (* same structure, different ids: anonymous keys agree, identified
     keys differ *)
  let g = Builders.cycle 4 in
  let i1 = Instance.make g in
  let i2 = Instance.make g ~ids:(Ident.of_array [| 4; 3; 2; 1 |]) in
  let a = View.extract i1 ~r:1 0 and b = View.extract i2 ~r:1 0 in
  check_bool "identified differ" false (View.equal a b);
  Alcotest.(check string) "anonymous agree" (View.key_anonymous a)
    (View.key_anonymous b)

let test_anonymous_key_ports_matter () =
  let g = Builders.path 3 in
  let labels = [| "x"; ""; "y" |] in
  let i1 = Instance.make g ~labels ~ports:[| [| 1 |]; [| 0; 2 |]; [| 1 |] |] in
  let i2 = Instance.make g ~labels ~ports:[| [| 1 |]; [| 2; 0 |]; [| 1 |] |] in
  let a = View.extract i1 ~r:1 1 and b = View.extract i2 ~r:1 1 in
  check_bool "port swap changes anonymous key" false
    (View.key_anonymous a = View.key_anonymous b);
  (* with indistinguishable leaves the swap is a port-preserving
     isomorphism, so the keys must agree *)
  let j1 = Instance.make g ~ports:[| [| 1 |]; [| 0; 2 |]; [| 1 |] |] in
  let j2 = Instance.make g ~ports:[| [| 1 |]; [| 2; 0 |]; [| 1 |] |] in
  Alcotest.(check string) "isomorphic swap keeps the key"
    (View.key_anonymous (View.extract j1 ~r:1 1))
    (View.key_anonymous (View.extract j2 ~r:1 1))

let test_anonymous_key_labels_matter () =
  let g = Builders.path 2 in
  let a = View.extract (Instance.make g ~labels:[| "x"; "y" |]) ~r:1 0 in
  let b = View.extract (Instance.make g ~labels:[| "x"; "z" |]) ~r:1 0 in
  check_bool "label changes key" false (View.key_anonymous a = View.key_anonymous b)

let test_order_invariant_key () =
  let g = Builders.path 3 in
  let i1 = Instance.make g ~ids:(Ident.of_array ~bound:30 [| 1; 2; 3 |]) in
  let i3 = Instance.make g ~ids:(Ident.of_array ~bound:30 [| 2; 3; 1 |]) in
  let a = View.extract i1 ~r:1 1 in
  let c = View.extract i3 ~r:1 1 in
  (* i1 around node 1: ids (1,2,3) ranked (0,1,2); i3: ids (2,3,1)
     ranked (1,2,0) - different order pattern *)
  check_bool "order pattern differs" false
    (View.key_order_invariant a = View.key_order_invariant c);
  let i4 = Instance.make g ~ids:(Ident.of_array ~bound:30 [| 10; 20; 30 |]) in
  let d = View.extract i4 ~r:1 1 in
  check_bool "order-isomorphic ids agree" true
    (View.key_order_invariant a = View.key_order_invariant d)

let test_subview1 () =
  let i = labeled_c6 () in
  let v = View.extract i ~r:2 0 in
  let w = Option.get (View.find_by_id v 2) in
  check_bool "subview equals direct extraction" true
    (View.equal (View.subview1 v w) (View.extract i ~r:1 1));
  let fringe = Option.get (View.find_by_id v 3) in
  (try
     ignore (View.subview1 v fringe);
     Alcotest.fail "expected fringe failure"
   with Invalid_argument _ -> ())

let test_map_labels () =
  let i = labeled_c6 () in
  let v = View.extract i ~r:1 0 in
  let v' = View.map_labels v String.uppercase_ascii in
  Alcotest.(check string) "mapped" "A" (View.center_label v');
  Alcotest.(check string) "original" "a" (View.center_label v)

let test_reidentify () =
  let i = labeled_c6 () in
  let v = View.extract i ~r:1 0 in
  let v' = View.reidentify v ~f:(fun id -> 7 - id) ~id_bound:6 () in
  check_int "center remapped" 6 (View.center_id v');
  check_bool "structure preserved anonymously" true
    (View.key_anonymous v = View.key_anonymous v');
  (try
     ignore (View.reidentify v ~f:(fun _ -> 5) ());
     Alcotest.fail "expected injectivity failure"
   with Invalid_argument _ -> ())

let test_extract_all () =
  let i = labeled_c6 () in
  let all = View.extract_all i ~r:1 in
  check_int "one per node" 6 (Array.length all);
  Array.iteri (fun v mu -> check_int "center id" (v + 1) (View.center_id mu)) all

let suite =
  [
    case "extract ball" test_extract_ball;
    case "radius growth" test_extract_radius_grows;
    case "rejects r=0" test_extract_rejects_r0;
    case "fringe edges invisible" test_fringe_edges_invisible;
    case "interior edges visible" test_interior_edges_visible;
    case "ports visible at both ends" test_ports_both_ends;
    case "center neighbors by port" test_center_neighbors_sorted_by_port;
    case "full_degree_known" test_full_degree_known;
    case "equality and identified keys" test_equal_and_keys;
    case "anonymous keys ignore ids" test_anonymous_key;
    case "anonymous keys see ports" test_anonymous_key_ports_matter;
    case "anonymous keys see labels" test_anonymous_key_labels_matter;
    case "order-invariant keys" test_order_invariant_key;
    case "subview1" test_subview1;
    case "map_labels" test_map_labels;
    case "reidentify" test_reidentify;
    case "extract_all" test_extract_all;
  ]

let test_restrict () =
  let i =
    Instance.make (Builders.cycle 6) ~labels:[| "a"; "b"; "c"; "d"; "e"; "f" |]
  in
  let big = View.extract i ~r:2 0 in
  let small = View.restrict big ~r:1 in
  check_bool "restriction = direct extraction" true
    (View.equal small (View.extract i ~r:1 0));
  check_bool "same radius is identity" true (View.equal big (View.restrict big ~r:2));
  (try
     ignore (View.restrict big ~r:3);
     Alcotest.fail "expected radius failure"
   with Invalid_argument _ -> ())

let test_mapi_labels () =
  let i = Instance.make (Builders.path 3) ~labels:[| "a"; "b"; "c" |] in
  let v = View.extract i ~r:1 1 in
  let v' = View.mapi_labels v (fun u s -> Printf.sprintf "%d%s" u s) in
  check_bool "center prefixed" true (View.center_label v' = "0b")

let suite =
  suite
  @ [
      case "restrict" test_restrict;
      case "mapi_labels" test_mapi_labels;
    ]
