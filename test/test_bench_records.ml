(* The committed BENCH_*.json records (bench/main.exe's output at the
   project root, which dune copies next to _build/default/test/): each
   of the eight series is present at schema v2, every row carries the
   row schema's fields with at least one rep, and no row records a
   divergent A/B gate. *)

open Helpers
module Json = Lcp_obs.Json

let series =
  [ "sweep"; "enumerate"; "search"; "orbit"; "serve"; "coord"; "race"; "large" ]

let get what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

(* One row: the schema's fields with their JSON kinds, reps >= 1,
   min <= median <= max, and a gate that is true or absent. *)
let check_row name file i r =
  let where = Printf.sprintf "%s row %d" file i in
  let field k = get where (Json.member k r) in
  let int k = get where (Json.to_int (field k)) in
  let obj k =
    match field k with
    | Json.Obj _ -> ()
    | _ -> Alcotest.failf "%s: %s is not an object" where k
  in
  let str k = get where (Json.to_str (field k)) in
  Alcotest.(check string) (where ^ ": series") name (str "series");
  ignore (str "workload");
  ignore (str "layer");
  obj "params";
  obj "counters";
  check_bool (where ^ ": reps >= 1") true (int "reps" >= 1);
  check_bool (where ^ ": min <= median <= max") true
    (int "min_ns" <= int "median_ns" && int "median_ns" <= int "max_ns");
  check_bool (where ^ ": per_op_ns >= 0") true (int "per_op_ns" >= 0);
  match field "identical" with
  | Json.Null | Json.Bool true -> ()
  | Json.Bool false -> Alcotest.failf "%s: a committed row diverged" where
  | _ -> Alcotest.failf "%s: identical is neither a bool nor null" where

let check_record name () =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let text =
    let root = Filename.concat (Filename.dirname Sys.executable_name) ".." in
    try In_channel.with_open_bin (Filename.concat root file) In_channel.input_all
    with Sys_error e -> Alcotest.failf "%s is not committed: %s" file e
  in
  let doc = get file (Json.of_string text) in
  check_int (file ^ ": schema_version") 2
    (get file (Json.to_int (get file (Json.member "schema_version" doc))));
  Alcotest.(check string)
    (file ^ ": series") name
    (get file (Json.to_str (get file (Json.member "series" doc))));
  let rows = get file (Json.to_list (get file (Json.member "rows" doc))) in
  check_bool (file ^ ": has rows") true (rows <> []);
  List.iteri (check_row name file) rows

let suite =
  List.map
    (fun name ->
      case (Printf.sprintf "BENCH_%s.json is a valid v2 record" name)
        (check_record name))
    series
