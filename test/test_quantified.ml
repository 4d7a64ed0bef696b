open Lcp_graph
open Lcp_local
open Lcp
open Helpers
module Enumerate = Lcp_oracle.Enumerate

let even_cycle_setup () =
  let fam =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 4 ]
      ~ports:`All ()
  in
  (Neighborhood.build D_even_cycle.decoder fam, fam)

let test_even_cycle_total_hiding () =
  let nbhd, fam = even_cycle_setup () in
  let res = Quantified.best_extractor ~k:2 nbhd fam in
  check_bool "exact" true res.Quantified.exact;
  (* 2-edge-coloring hides everywhere: every extractor fails at every
     node of some instance *)
  check_bool "hiding level 1.0" true (Quantified.hiding_level res = 1.0)

let test_trivial_full_extraction () =
  let suite = D_trivial.suite ~k:2 in
  let fam =
    List.filter_map
      (fun g -> Decoder.certify suite (Instance.make g))
      [ Builders.path 4; Builders.cycle 6 ]
  in
  let nbhd = Neighborhood.build suite.Decoder.dec fam in
  let res = Quantified.best_extractor ~k:2 nbhd fam in
  check_bool "full success" true (res.Quantified.worst_case_success = 1.0);
  check_bool "no hiding" true (Quantified.hiding_level res = 0.0)

(* The share of nodes the extractor [coloring] (a color per view class)
   serves: a node fails when its view is unknown to [nbhd] or an edge
   at it gets one color at both ends. *)
let success_fraction nbhd coloring (inst : Instance.t) =
  let g = inst.Instance.graph in
  let color =
    Array.map
      (fun view ->
        Option.fold ~none:(-1) ~some:(Array.get coloring)
          (Neighborhood.find nbhd view))
      (View.extract_all inst ~r:nbhd.Neighborhood.view_radius)
  in
  let fails v =
    color.(v) < 0
    || Array.exists (fun w -> color.(w) = color.(v)) (Graph.neighbors_array g v)
  in
  let ok = List.length (List.filter (fun v -> not (fails v)) (Graph.nodes g)) in
  float_of_int ok /. float_of_int (Graph.order g)

let test_success_fraction_consistent () =
  let nbhd, fam = even_cycle_setup () in
  let res = Quantified.best_extractor ~k:2 nbhd fam in
  let min_frac =
    List.fold_left
      (fun acc inst -> min acc (success_fraction nbhd res.Quantified.best inst))
      1.0 fam
  in
  check_bool "reported = recomputed" true (min_frac = res.Quantified.worst_case_success)

let test_unknown_views_count_as_failures () =
  let nbhd, _ = even_cycle_setup () in
  let stranger = Instance.make (Builders.cycle 4) ~labels:(Array.make 4 "junk") in
  let res = Quantified.best_extractor ~k:2 nbhd [ stranger ] in
  check_bool "all fail" true (res.Quantified.worst_case_success = 0.0)

let test_hill_climb_path () =
  (* a neighborhood graph of at least 18 views has more than 200,000
     2-colorings, which forces the heuristic path; the result is a
     legal extractor and a sane fraction *)
  let suite = D_trivial.suite ~k:2 in
  let fam =
    List.filter_map
      (fun g -> Decoder.certify suite (Instance.make g))
      [ Builders.path 6; Builders.cycle 6; Builders.star 3; Builders.star 4;
        Builders.grid 3 3 ]
  in
  let nbhd = Neighborhood.build suite.Decoder.dec fam in
  check_bool "at least 18 views" true (Neighborhood.order nbhd >= 18);
  let res = Quantified.best_extractor ~k:2 nbhd fam in
  check_bool "heuristic" true (not res.Quantified.exact);
  check_int "one color per view" (Neighborhood.order nbhd)
    (Array.length res.Quantified.best);
  check_bool "fraction in range" true
    (res.Quantified.worst_case_success >= 0.0 && res.Quantified.worst_case_success <= 1.0)

let test_degree_one_partial () =
  let fam =
    Neighborhood.exhaustive_family D_degree_one.suite
      ~graphs:
        (List.filter
           (fun g -> Coloring.is_bipartite g && Graph.min_degree g = 1)
           (Enumerate.connected_up_to_iso 4 @ Enumerate.connected_up_to_iso 3))
      ()
  in
  let nbhd = Neighborhood.build D_degree_one.decoder fam in
  let res = Quantified.best_extractor ~k:2 nbhd fam in
  let level = Quantified.hiding_level res in
  check_bool "strictly between 0 and 1" true (level > 0.0 && level < 1.0)

let suite =
  [
    case "even-cycle hides everywhere" test_even_cycle_total_hiding;
    case "trivial extracts everything" test_trivial_full_extraction;
    case "fractions consistent" test_success_fraction_consistent;
    case "unknown views fail" test_unknown_views_count_as_failures;
    case "hill-climbing fallback" test_hill_climb_path;
    case "degree-one hides partially" test_degree_one_partial;
  ]
