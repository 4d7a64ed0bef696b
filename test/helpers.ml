(* Shared fixtures and testables for the suites. *)

open Lcp_graph
open Lcp_local

let rng () = Random.State.make [| 987654321 |]

let graph_testable =
  Alcotest.testable (fun ppf g -> Graph.pp ppf g) Graph.equal

let int_list = Alcotest.(list int)

let check_graph = Alcotest.check graph_testable
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let view_testable =
  Alcotest.testable (fun ppf v -> View.pp ppf v) View.equal

let p4 () = Builders.path 4
let c4 () = Builders.cycle 4
let c5 () = Builders.cycle 5
let c6 () = Builders.cycle 6
let k4 () = Builders.complete 4

let inst g = Instance.make g

let certify_exn suite g =
  match Lcp.Decoder.certify suite (inst g) with
  | Some i -> i
  | None -> Alcotest.fail "honest prover failed unexpectedly"

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f
