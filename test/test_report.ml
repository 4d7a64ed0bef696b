open Lcp
open Helpers
module Json = Lcp_obs.Json

let sample =
  {
    Report.id = "EX";
    title = "sample";
    rows =
      [
        Report.check "plain" true ~expected:"-" ~actual:"value";
        Report.check "good" true ~expected:"yes" ~actual:"yes";
        Report.check "bad" false ~expected:"yes" ~actual:"no";
      ];
  }

let test_passed () =
  check_bool "fails with a bad row" false (Report.passed sample);
  let ok =
    { sample with Report.rows = [ Report.check "a" true ~expected:"-" ~actual:"b" ] }
  in
  check_bool "passes" true (Report.passed ok)

let test_pp () =
  let s = Format.asprintf "%a" Report.pp_all [ sample ] in
  check_bool "mentions FAIL" true
    (Helpers.contains ~needle:"FAIL" s);
  check_bool "mentions MISMATCH" true (Helpers.contains ~needle:"MISMATCH" s)

let test_markdown () =
  let md = Report.to_markdown sample in
  check_bool "has table header" true
    (Helpers.contains ~needle:"| check | measured |" md);
  check_bool "flags mismatch" true (Helpers.contains ~needle:"**mismatch**" md)

let test_summary () =
  check_bool "summary line" true
    (Helpers.contains ~needle:"EX" (Report.summary_line sample))

let test_json () =
  let j =
    match Json.member "reports" (Report.battery_to_json [ sample ]) with
    | Ok (Json.List [ j ]) -> j
    | _ -> Alcotest.fail "one report expected"
  in
  check_bool "id field" true (Json.member "id" j = Ok (Json.String "EX"));
  check_bool "passed field" true (Json.member "passed" j = Ok (Json.Bool false));
  (match Json.member "rows" j with
  | Ok (Json.List rows) -> check_int "three rows" 3 (List.length rows)
  | _ -> Alcotest.fail "rows missing")

let test_battery_json_roundtrip () =
  let battery = Report.battery_to_json [ sample; sample ] in
  check_bool "schema versioned" true
    (Json.member "schema_version" battery
    = Ok (Json.Int 1));
  check_bool "total" true (Json.member "total" battery = Ok (Json.Int 2));
  check_bool "passed count" true (Json.member "passed" battery = Ok (Json.Int 0));
  match Json.of_string (Json.to_string_pretty battery) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check string) "round-trips through of_string"
        (Json.to_string battery) (Json.to_string j)

let suite =
  [
    case "passed" test_passed;
    case "pretty printing" test_pp;
    case "markdown" test_markdown;
    case "summary line" test_summary;
    case "report json" test_json;
    case "battery json round-trip" test_battery_json_roundtrip;
  ]
