open Lcp_graph
open Lcp_local
open Lcp_obs.Json

let graph_to_json g =
  Obj
    [
      ("order", Int (Graph.order g));
      ( "edges",
        List (List.map (fun (u, v) -> List [ Int u; Int v ]) (Graph.edges g)) );
    ]

let graph_of_json j =
  let* order = Result.bind (member "order" j) to_int in
  let* edges_json = Result.bind (member "edges" j) to_list in
  let* edges =
    map_m
      (fun e ->
        let* pair = to_list e in
        match pair with
        | [ a; b ] ->
            let* u = to_int a in
            let* v = to_int b in
            Ok (u, v)
        | _ -> Error "edge must be a pair")
      edges_json
  in
  try Ok (Graph.of_edges order edges) with Invalid_argument m -> Error m

let instance_to_json (inst : Instance.t) =
  let g = inst.Instance.graph in
  Obj
    [
      ("graph", graph_to_json g);
      ( "ports",
        List
          (List.map
             (fun v ->
               List (Array.to_list (Array.map (fun w -> Int w) inst.Instance.ports.(v))))
             (Graph.nodes g)) );
      ( "ids",
        List (Array.to_list (Array.map (fun i -> Int i) inst.Instance.ids.Ident.ids)) );
      ("id_bound", Int inst.Instance.ids.Ident.bound);
      ( "labels",
        List (Array.to_list (Array.map (fun s -> String s) inst.Instance.labels)) );
    ]

let instance_of_json j =
  let* graph = Result.bind (member "graph" j) graph_of_json in
  let* ports_json = Result.bind (member "ports" j) to_list in
  let* ports =
    map_m
      (fun row ->
        let* cells = to_list row in
        let* ints = map_m to_int cells in
        Ok (Array.of_list ints))
      ports_json
  in
  let* ids_json = Result.bind (member "ids" j) to_list in
  let* ids = map_m to_int ids_json in
  let* bound = Result.bind (member "id_bound" j) to_int in
  let* labels_json = Result.bind (member "labels" j) to_list in
  let* labels = map_m to_str labels_json in
  try
    Ok
      (Instance.make graph
         ~ports:(Array.of_list ports)
         ~ids:(Ident.of_array ~bound (Array.of_list ids))
         ~labels:(Array.of_list labels))
  with Invalid_argument m -> Error m

let report_to_json (r : Report.t) =
  Obj
    [
      ("id", String r.Report.id);
      ("title", String r.Report.title);
      ("passed", Bool (Report.passed r));
      ( "rows",
        List
          (List.map
             (fun row ->
               Obj
                 [
                   ("label", String row.Report.label);
                   ("value", String row.Report.value);
                   ("expected", String row.Report.expected);
                   ("ok", Bool row.Report.ok);
                 ])
             r.Report.rows) );
    ]

let verdicts_to_json dec inst =
  let verdicts = Decoder.run dec inst in
  Obj
    [
      ("decoder", String dec.Decoder.name);
      ("radius", Int dec.Decoder.radius);
      ("instance", instance_to_json inst);
      ("verdicts", List (Array.to_list (Array.map (fun b -> Bool b) verdicts)));
      ("unanimous", Bool (Array.for_all (fun b -> b) verdicts));
    ]

let save path json =
  let oc = open_out path in
  output_string oc (to_string_pretty json);
  output_string oc "\n";
  close_out oc

let load path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s
  with Sys_error m -> Error m
