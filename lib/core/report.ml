module Json = Lcp_obs.Json

type row = { label : string; value : string; expected : string; ok : bool }
type t = { id : string; title : string; rows : row list }

let row ?(expected = "-") ?(ok = true) label value = { label; value; expected; ok }

let check label ok ~expected ~actual = { label; value = actual; expected; ok }

let passed t = List.for_all (fun r -> r.ok) t.rows

let pp ppf t =
  Format.fprintf ppf "=== %s: %s [%s]@." t.id t.title
    (if passed t then "PASS" else "FAIL");
  let width =
    List.fold_left (fun acc r -> max acc (String.length r.label)) 10 t.rows
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-*s  %-30s expected: %-20s %s@." width r.label r.value
        r.expected
        (if r.ok then "ok" else "MISMATCH"))
    t.rows

let pp_all ppf reports =
  List.iter (fun r -> pp ppf r; Format.fprintf ppf "@.") reports;
  let pass = List.filter passed reports |> List.length in
  Format.fprintf ppf "Total: %d/%d experiments pass@." pass (List.length reports)

let to_markdown t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "### %s — %s (%s)\n\n" t.id t.title
       (if passed t then "PASS" else "FAIL"));
  Buffer.add_string buf "| check | measured | paper / expected | status |\n";
  Buffer.add_string buf "|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %s | %s |\n" r.label r.value r.expected
           (if r.ok then "ok" else "**mismatch**")))
    t.rows;
  Buffer.contents buf

let summary_line t =
  Printf.sprintf "%-4s %-58s %s" t.id t.title (if passed t then "PASS" else "FAIL")

let row_to_json r =
  Json.Obj
    [
      ("label", Json.String r.label);
      ("measured", Json.String r.value);
      ("expected", Json.String r.expected);
      ("ok", Json.Bool r.ok);
    ]

let to_json t =
  Json.Obj
    [
      ("id", Json.String t.id);
      ("title", Json.String t.title);
      ("passed", Json.Bool (passed t));
      ("rows", Json.List (List.map row_to_json t.rows));
    ]

let battery_schema_version = 1

let battery_to_json reports =
  Json.Obj
    [
      ("schema_version", Json.Int battery_schema_version);
      ("total", Json.Int (List.length reports));
      ("passed", Json.Int (List.length (List.filter passed reports)));
      ("reports", Json.List (List.map to_json reports));
    ]
