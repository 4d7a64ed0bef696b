open Lcp_graph
open Lcp_local
open Lcp
open Helpers
module Enumerate = Lcp_oracle.Enumerate

let accept_all =
  Decoder.make ~name:"accept-all" ~radius:1 ~anonymous:false (fun _ -> true)

let rotation_instances () =
  let g = Builders.path 5 in
  List.init 5 (fun k ->
      let ids = Array.init 5 (fun v -> 1 + ((k + v) mod 5)) in
      Instance.make g ~ids:(Ident.of_array ~bound:5 ids))

let test_compatible_same_instance () =
  let i = List.hd (rotation_instances ()) in
  let mu1 = View.extract i ~r:1 1 and mu2 = View.extract i ~r:1 2 in
  let u = Option.get (View.find_by_id mu1 (View.center_id mu2)) in
  check_bool "adjacent views compatible" true (Realizability.compatible mu1 u mu2)

let test_compatible_id_mismatch () =
  let i = List.hd (rotation_instances ()) in
  let mu1 = View.extract i ~r:1 1 and mu2 = View.extract i ~r:1 2 in
  (* node 0 of mu1 is not the center id of mu2 *)
  let wrong = Option.get (View.find_by_id mu1 1) in
  check_bool "wrong id incompatible" false (Realizability.compatible mu1 wrong mu2)

let test_compatible_interior_conflict () =
  (* two radius-2 views disagreeing on an interior node's edges *)
  let i1 = Instance.make (Builders.path 5) in
  let i2 = Instance.make (Builders.star 4) in
  (* node with id 2 is interior in both views but has different
     radius-1 surroundings *)
  let mu1 = View.extract i1 ~r:2 2 in
  let mu2 = View.extract i2 ~r:2 1 in
  (* mu2's center is the leaf with id 2 of the star *)
  match View.find_by_id mu1 (View.center_id mu2) with
  | Some u -> check_bool "conflict detected" false (Realizability.compatible mu1 u mu2)
  | None -> Alcotest.fail "id 2 present in the path view"

let test_ids_and_occurrences () =
  let insts = rotation_instances () in
  let nbhd = Neighborhood.build accept_all insts in
  let cyc = Option.get (Neighborhood.odd_cycle nbhd) in
  let h = Realizability.of_neighborhood nbhd cyc in
  (* the witness assigns one view to every id occurring in H, and that
     view is compatible with each of the id's occurrences *)
  let assignment = Option.get (Realizability.realizable h) in
  Alcotest.(check int_list) "all five ids" [ 1; 2; 3; 4; 5 ]
    (List.sort compare (List.map fst assignment));
  List.iter
    (fun (i, mu) ->
      let occurrences =
        List.filter_map
          (fun view -> Option.map (fun u -> (view, u)) (View.find_by_id view i))
          (Array.to_list h.Realizability.views)
      in
      check_int "each id occurs in 3 views of the cycle" 3 (List.length occurrences);
      List.iter
        (fun (view, u) ->
          check_bool "compatible with every occurrence" true
            (Realizability.compatible view u mu))
        occurrences)
    assignment

let full_pipeline () =
  let insts = rotation_instances () in
  let nbhd = Neighborhood.build accept_all insts in
  let cyc = Option.get (Neighborhood.odd_cycle nbhd) in
  let h = Realizability.of_neighborhood nbhd cyc in
  let pool =
    List.concat_map (fun i -> Array.to_list (View.extract_all i ~r:1)) insts
  in
  (h, pool)

let test_realizable () =
  let h, pool = full_pipeline () in
  match Realizability.realizable ~pool h with
  | Some assignment ->
      check_int "one view per id" 5 (List.length assignment);
      check_bool "views centered correctly" true
        (List.for_all (fun (i, v) -> View.center_id v = i) assignment)
  | None -> Alcotest.fail "rotation cycle is realizable"

let test_realize_gbad () =
  let h, pool = full_pipeline () in
  let assignment = Option.get (Realizability.realizable ~pool h) in
  match Realizability.realize assignment with
  | Ok realization ->
      let g = realization.Realizability.instance.Instance.graph in
      check_int "C5 nodes" 5 (Graph.order g);
      check_int "C5 edges" 5 (Graph.size g);
      check_bool "odd cycle" false (Coloring.is_bipartite g);
      check_bool "valid instance" true (instance_valid realization.Realizability.instance);
      check_bool "centers accepted" true
        (Realizability.centers_accepted accept_all h realization)
  | Error e -> Alcotest.fail ("gluing failed: " ^ e)

let test_lemma_5_1_end_to_end () =
  let h, pool = full_pipeline () in
  match Realizability.lemma_5_1 accept_all ~pool h with
  | Ok realization ->
      check_bool "non-bipartite witness" false
        (Coloring.is_bipartite realization.Realizability.instance.Instance.graph)
  | Error e -> Alcotest.fail e

let test_label_conflict_detected () =
  (* two centered views claiming the same id with different labels *)
  let g = Builders.path 3 in
  let i1 = Instance.make g ~labels:[| "a"; "b"; "c" |] in
  let i2 = Instance.make g ~labels:[| "a"; "x"; "c" |] in
  let mu1 = View.extract i1 ~r:1 0 in
  let mu2 = View.extract i2 ~r:1 1 in
  match Realizability.realize [ (1, mu1); (2, mu2) ] with
  | Error e -> check_bool "conflict reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected label conflict"

let test_realize_rejects_off_center () =
  let g = Builders.path 3 in
  let i = Instance.make g in
  let mu = View.extract i ~r:1 0 in
  match Realizability.realize [ (2, mu) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "view centered at id 1 cannot stand for id 2"

let test_paper_decoder_no_violation () =
  (* the degree-one decoder is strongly sound: its odd identified view
     cycles (if any) must never pass the full Lemma 5.1 pipeline *)
  let suite = D_degree_one.suite in
  let graphs =
    Enumerate.connected_up_to_iso 4 |> List.filter Coloring.is_bipartite
    |> List.filter (fun g -> Graph.min_degree g = 1)
  in
  let fam = Neighborhood.exhaustive_family suite ~graphs () in
  let nb = Neighborhood.build ~mode:Neighborhood.Identified suite.Decoder.dec fam in
  match Neighborhood.odd_cycle nb with
  | None -> ()
  | Some cyc -> (
      let h = Realizability.of_neighborhood nb cyc in
      let pool = List.concat_map (fun i -> Array.to_list (View.extract_all i ~r:1)) fam in
      match Realizability.lemma_5_1 suite.Decoder.dec ~pool h with
      | Error _ -> ()
      | Ok realization ->
          check_bool "any realization stays bipartite" true
            (Coloring.is_bipartite realization.Realizability.instance.Instance.graph))

let suite =
  [
    case "compatibility of adjacent views" test_compatible_same_instance;
    case "compatibility needs matching ids" test_compatible_id_mismatch;
    case "interior conflicts break compatibility" test_compatible_interior_conflict;
    case "ids and occurrences" test_ids_and_occurrences;
    case "realizable odd cycle" test_realizable;
    case "G_bad gluing" test_realize_gbad;
    case "Lemma 5.1 end to end" test_lemma_5_1_end_to_end;
    case "label conflicts detected" test_label_conflict_detected;
    case "off-center assignment rejected" test_realize_rejects_off_center;
    case "paper decoder yields no violation" test_paper_decoder_no_violation;
  ]
