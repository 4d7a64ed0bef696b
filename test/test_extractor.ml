open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let trivial = D_trivial.suite ~k:2

let build_extractor () =
  let insts =
    List.filter_map
      (fun g -> Decoder.certify trivial (Instance.make g))
      [ Builders.path 4; Builders.path 5; Builders.cycle 4; Builders.cycle 6 ]
  in
  match Extractor.of_verdict (Hiding.check ~k:2 trivial.Decoder.dec insts) with
  | Some ex -> (ex, insts)
  | None -> Alcotest.fail "expected colorable verdict"

let test_extract_proper () =
  let ex, insts = build_extractor () in
  List.iter
    (fun inst ->
      let colors = Extractor.extract ex inst in
      check_bool "no failures" true (Array.for_all (fun c -> c >= 0) colors);
      check_bool "proper" true (Coloring.is_proper inst.Instance.graph colors);
      check_bool "succeeds" true (Extractor.extraction_succeeds ex inst))
    insts

let test_unknown_views_fail () =
  let ex, _ = build_extractor () in
  (* an instance with junk labels: views unknown to V *)
  let stranger =
    Instance.make (Builders.path 4) ~labels:(Array.make 4 "junk")
  in
  let colors = Extractor.extract ex stranger in
  check_bool "all unknown" true (Array.for_all (fun c -> c = -1) colors);
  check_bool "fails" false (Extractor.extraction_succeeds ex stranger)

(* a Colorable verdict carrying an improper coloring is refused *)
let test_of_coloring_validates () =
  let insts = [ certify_exn trivial (Builders.path 4) ] in
  let nbhd = Neighborhood.build trivial.Decoder.dec insts in
  let bad = Array.make (Neighborhood.order nbhd) 0 in
  check_bool "V has an edge" true (Neighborhood.size nbhd > 0);
  match Extractor.of_verdict (Hiding.Colorable { coloring = bad; nbhd }) with
  | _ -> Alcotest.fail "expected improper coloring failure"
  | exception Invalid_argument _ -> ()

let test_of_verdict_none_on_hiding () =
  let fam =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 6 ]
      ~ports:`All ()
  in
  check_bool "no extractor for hiding decoders" true
    (Extractor.of_verdict (Hiding.check ~k:2 D_even_cycle.decoder fam) = None)

let suite =
  [
    case "extraction recovers proper colorings" test_extract_proper;
    case "unknown views fail gracefully" test_unknown_views_fail;
    case "of_coloring validates" test_of_coloring_validates;
    case "no extractor from hiding verdicts" test_of_verdict_none_on_hiding;
  ]
