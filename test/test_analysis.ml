(* The decoder sanitizer: positive path (every shipped decoder honors
   its contract), negative path (seeded misbehaving decoders are caught
   with the right finding kinds), and the determinism of the report
   across jobs. *)

open Lcp_graph
open Lcp_local
open Lcp
open Helpers

let findings_of_kind kind report =
  List.filter
    (fun (f : Lcp_analysis.Finding.t) -> f.Lcp_analysis.Finding.kind = kind)
    (Lcp_analysis.Lint.findings report)

let lint ?(max_n = 3) ?(samples = 3) entries =
  Lcp_analysis.Lint.run
    ~cfg:(Lcp_obs.Run_cfg.make ~jobs:2 ())
    ~max_n ~samples entries

(* ------------------------------------------------------------------ *)
(* misbehaving decoders (the sanitizer's negative path)                *)

(* A promise-free suite wrapper: the sanitizer checks decoder
   contracts, not soundness, so the bundle parts can be trivial. *)
let bad_suite dec =
  {
    Decoder.dec;
    promise = (fun _ -> true);
    prover = (fun inst -> Some (Labeling.const inst.Instance.graph "0"));
    adversary_alphabet = (fun _ -> [ "0"; "1"; Decoder.junk ]);
    cert_bits = (fun _ -> 1);
  }

(* Requests radius-2 views but is registered with a declared radius of
   1 — and really does read certificates at depth 2. *)
let deep_reader =
  Decoder.make ~name:"bad-deep-reader" ~radius:2 ~anonymous:true (fun view ->
      let ok = ref true in
      for u = 0 to View.size view - 1 do
        if View.label view u = Decoder.junk then ok := false
      done;
      !ok)

let deep_entry = Registry.entry ~radius:1 "bad-deep-reader" (bad_suite deep_reader)

(* Claims anonymity but branches on the raw identifier. *)
let id_peeker =
  Decoder.make ~name:"bad-id-peeker" ~radius:1 ~anonymous:true (fun view ->
      View.center_id view mod 2 = 0)

let id_entry = Registry.entry "bad-id-peeker" (bad_suite id_peeker)

(* Claims port invariance but branches on far-end port numbers. *)
let port_peeker =
  Decoder.make ~name:"bad-port-peeker" ~radius:1 ~anonymous:true (fun view ->
      List.for_all (fun (_, _, fp) -> fp = 1) (View.center_neighbors view))

let port_entry =
  Registry.entry ~port_invariant:true "bad-port-peeker" (bad_suite port_peeker)

(* ------------------------------------------------------------------ *)
(* trace plumbing                                                      *)

let test_trace_records () =
  let view = View.extract (inst (p4 ())) ~r:2 1 in
  let (), events =
    View.Trace.record (fun () ->
        ignore (View.center_label view);
        ignore (View.id view 1))
  in
  check_int "two events" 2 (List.length events);
  (match events with
  | [ a; b ] ->
      check_bool "label first" true (a.View.Trace.field = View.Trace.Label);
      check_int "label bits" (View.Trace.label_bits "") a.View.Trace.bits;
      check_bool "id second" true (b.View.Trace.field = View.Trace.Id)
  | _ -> Alcotest.fail "expected exactly the two recorded events");
  check_bool "recorder disarmed outside" false (View.Trace.active ())

let test_trace_nests_and_restores () =
  let view = View.extract (inst (c4 ())) ~r:1 0 in
  let (_, outer) =
    View.Trace.record (fun () ->
        ignore (View.center_label view);
        let (), inner =
          View.Trace.record (fun () -> ignore (View.label view 1))
        in
        check_int "inner sees only its own read" 1 (List.length inner);
        ignore (View.center_degree view))
  in
  (* the outer trace has its own two reads, not the inner one *)
  check_int "outer events" 2 (List.length outer)

let test_untraced_is_silent () =
  let view = View.extract (inst (p4 ())) ~r:1 0 in
  ignore (View.center_label view);
  check_bool "no recorder armed" false (View.Trace.active ())

(* ------------------------------------------------------------------ *)
(* probe measurements                                                  *)

let test_probe_trivial_radius () =
  let certified = certify_exn (D_trivial.suite ~k:2) (p4 ()) in
  let m = Lcp_analysis.Probe.measure (D_trivial.decoder ~k:2) certified in
  check_int "observed radius" 1 m.Lcp_analysis.Probe.observed_radius;
  check_int "no id reads" 0 m.Lcp_analysis.Probe.id_reads;
  check_bool "all accept" true (Array.for_all Fun.id m.Lcp_analysis.Probe.verdicts)

let test_probe_verdicts_match_run () =
  let certified = certify_exn D_spanning.suite (c6 ()) in
  let m = Lcp_analysis.Probe.measure D_spanning.decoder certified in
  check_bool "tracing does not change verdicts" true
    (m.Lcp_analysis.Probe.verdicts = Decoder.run D_spanning.decoder certified)

let test_probe_cert_bits () =
  let g = Builders.path 2 in
  let certified = certify_exn (D_trivial.suite ~k:2) g in
  let m = Lcp_analysis.Probe.measure (D_trivial.decoder ~k:2) certified in
  (* each evaluation reads its own and its neighbor's one-byte color *)
  check_int "bits read" 16 m.Lcp_analysis.Probe.max_label_bits

(* ------------------------------------------------------------------ *)
(* lint: positive and negative paths                                   *)

let test_registry_is_clean () =
  let report =
    Lcp_analysis.Lint.run ~cfg:(Lcp_obs.Run_cfg.make ~jobs:2 ()) Registry.all
  in
  Alcotest.(check (list string))
    "no findings at all" []
    (List.map
       (fun (f : Lcp_analysis.Finding.t) ->
         Lcp_analysis.Finding.kind_to_string f.Lcp_analysis.Finding.kind)
       (Lcp_analysis.Lint.findings report));
  check_int "eleven decoders" (List.length Registry.all)
    (List.length report.Lcp_analysis.Lint.decoders)

let test_deep_reader_flagged () =
  let report = lint [ deep_entry ] in
  check_bool "radius violation found" true
    (findings_of_kind Lcp_analysis.Finding.Radius_violation report <> []);
  check_bool "it is a violation" true (Lcp_analysis.Lint.violations report <> []);
  (* the honest reads-everything decoder breaks no other contract *)
  check_bool "no id findings" true
    (findings_of_kind Lcp_analysis.Finding.Id_taint report = []
    && findings_of_kind Lcp_analysis.Finding.Id_variance report = [])

let test_id_peeker_flagged () =
  let report = lint [ id_entry ] in
  check_bool "id taint found" true
    (findings_of_kind Lcp_analysis.Finding.Id_taint report <> []);
  check_bool "id variance found" true
    (findings_of_kind Lcp_analysis.Finding.Id_variance report <> []);
  check_bool "no radius violation" true
    (findings_of_kind Lcp_analysis.Finding.Radius_violation report = [])

let test_port_peeker_flagged () =
  let report = lint [ port_entry ] in
  check_bool "port variance found" true
    (findings_of_kind Lcp_analysis.Finding.Port_variance report <> [])

let test_distinct_kinds () =
  let report = lint [ deep_entry; id_entry ] in
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun (f : Lcp_analysis.Finding.t) ->
           Lcp_analysis.Finding.kind_to_string f.Lcp_analysis.Finding.kind)
         (Lcp_analysis.Lint.violations report))
  in
  check_bool "both kinds, distinct" true
    (List.mem "radius-violation" kinds && List.mem "id-taint" kinds)

(* ------------------------------------------------------------------ *)
(* report plumbing                                                     *)

let test_report_json_roundtrip () =
  let report = lint [ deep_entry ] in
  let json = Lcp_analysis.Lint.report_to_json report in
  match Lcp_obs.Json.of_string (Lcp_obs.Json.to_string_pretty json) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      let open Lcp_obs.Json in
      (match let* v = member "schema_version" parsed in to_int v with
      | Ok v -> check_int "schema version" Lcp_analysis.Lint.schema_version v
      | Error e -> Alcotest.fail e);
      (match let* ds = member "decoders" parsed in to_list ds with
      | Ok [ d ] -> (
          match let* f = member "findings" d in to_list f with
          | Ok fs -> check_bool "findings serialized" true (fs <> [])
          | Error e -> Alcotest.fail e)
      | Ok _ -> Alcotest.fail "expected one decoder entry"
      | Error e -> Alcotest.fail e)

let test_report_deterministic_across_jobs () =
  let render jobs =
    Lcp_obs.Json.to_string
      (Lcp_analysis.Lint.report_to_json
         (Lcp_analysis.Lint.run
            ~cfg:(Lcp_obs.Run_cfg.make ~jobs ())
            ~max_n:3 ~samples:3 Registry.all))
  in
  Alcotest.(check string) "jobs=1 and jobs=4 render identically" (render 1)
    (render 4)

let suite =
  [
    case "trace: accessors record events" test_trace_records;
    case "trace: nesting restores the outer recorder" test_trace_nests_and_restores;
    case "trace: nothing recorded when disarmed" test_untraced_is_silent;
    case "probe: trivial decoder has observed radius 1" test_probe_trivial_radius;
    case "probe: traced verdicts equal Decoder.run" test_probe_verdicts_match_run;
    case "probe: certificate bits accounted" test_probe_cert_bits;
    slow_case "lint: the shipped registry is clean" test_registry_is_clean;
    case "lint: deep reader breaks its radius contract" test_deep_reader_flagged;
    case "lint: id peeker breaks its anonymity contract" test_id_peeker_flagged;
    case "lint: port peeker breaks its port contract" test_port_peeker_flagged;
    case "lint: the two seeded offenders get distinct kinds" test_distinct_kinds;
    case "lint: report JSON parses back" test_report_json_roundtrip;
    case "lint: report identical for jobs=1 and jobs=4"
      test_report_deterministic_across_jobs;
  ]
