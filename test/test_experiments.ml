open Lcp
open Helpers

let light () = Lcp_obs.Run_cfg.make ~heavy:false ()

(* The full battery (light mode) must reproduce every paper artifact. *)
let test_battery () =
  let reports = Experiments.run_all ~cfg:(light ()) () in
  check_int "twenty experiments" 20 (List.length reports);
  List.iter
    (fun r ->
      check_bool (r.Report.id ^ " passes") true (Report.passed r))
    reports

let test_individual_ids () =
  let reports = Experiments.run_all ~cfg:(light ()) () in
  Alcotest.(check (list string)) "ids in order"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16"; "E17"; "E18"; "E19"; "E20" ]
    (List.map (fun r -> r.Report.id) reports)

let suite =
  [
    slow_case "full battery (light)" test_battery;
    slow_case "experiment ids" test_individual_ids;
  ]
