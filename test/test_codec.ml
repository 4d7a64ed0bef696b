open Lcp_graph
open Lcp_local
open Lcp
open Helpers
module Json = Lcp_obs.Json

let test_graph_roundtrip () =
  List.iter
    (fun g ->
      match Codec.graph_of_json (Codec.graph_to_json g) with
      | Ok g' -> check_graph "roundtrip" g g'
      | Error e -> Alcotest.fail e)
    [ Graph.empty 0; Graph.empty 3; Builders.petersen (); Builders.grid 3 4;
      Builders.watermelon [ 2; 3; 4 ] ]

let test_graph_bad_json () =
  let bad j = match Codec.graph_of_json j with Error _ -> true | Ok _ -> false in
  check_bool "missing field" true (bad (Json.Obj [ ("order", Json.Int 2) ]));
  check_bool "self loop" true
    (bad
       (Json.Obj
          [ ("order", Json.Int 2);
            ("edges", Json.List [ Json.List [ Json.Int 0; Json.Int 0 ] ]) ]));
  check_bool "out of range" true
    (bad
       (Json.Obj
          [ ("order", Json.Int 2);
            ("edges", Json.List [ Json.List [ Json.Int 0; Json.Int 5 ] ]) ]))

let test_instance_roundtrip () =
  let r = rng () in
  let insts =
    [
      Instance.make (Builders.path 4) ~labels:[| "a:b"; ""; "x|y"; "0" |];
      Instance.random r (Builders.cycle 6);
      Option.get (Decoder.certify D_shatter.suite (Instance.make (Builders.path 5)));
    ]
  in
  List.iter
    (fun inst ->
      match Codec.instance_of_json (Codec.instance_to_json inst) with
      | Ok inst' ->
          check_graph "graph" inst.Instance.graph inst'.Instance.graph;
          check_bool "ports" true (inst.Instance.ports = inst'.Instance.ports);
          check_bool "ids" true (inst.Instance.ids = inst'.Instance.ids);
          check_bool "labels" true (inst.Instance.labels = inst'.Instance.labels)
      | Error e -> Alcotest.fail e)
    insts

let test_verdicts_json () =
  let inst =
    Option.get (Decoder.certify D_degree_one.suite (Instance.make (Builders.path 4)))
  in
  let j = Codec.verdicts_to_json D_degree_one.decoder inst in
  let open Json in
  check_bool "unanimous flag" true
    (Result.bind (member "unanimous" j) to_bool = Ok true);
  check_bool "decoder name" true
    (Result.bind (member "decoder" j) to_str = Ok "degree-one")

let test_report_json () =
  let j =
    Codec.report_to_json
      { Report.id = "EX"; title = "t";
        rows = [ Report.check "c" true ~expected:"e" ~actual:"a" ] }
  in
  check_bool "parses back" true
    (Json.of_string (Json.to_string j) = Ok j)

let test_save_load () =
  let path = Filename.temp_file "lcp" ".json" in
  let inst = Instance.make (Builders.cycle 5) in
  Codec.save path (Codec.instance_to_json inst);
  (match Codec.load path with
  | Ok j -> (
      match Codec.instance_of_json j with
      | Ok inst' -> check_graph "reloaded" inst.Instance.graph inst'.Instance.graph
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  check_bool "missing file" true
    (match Codec.load "/nonexistent/file.json" with Error _ -> true | Ok _ -> false)

let suite =
  [
    case "graph roundtrip" test_graph_roundtrip;
    case "graph decode validation" test_graph_bad_json;
    case "instance roundtrip" test_instance_roundtrip;
    case "verdicts export" test_verdicts_json;
    case "report export" test_report_json;
    case "save / load" test_save_load;
  ]
