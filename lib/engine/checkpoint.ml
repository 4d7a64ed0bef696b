module Json = Lcp_obs.Json

let schema_version = 2

type enum = {
  candidates : int;
  connected : int;
  classes : int;
  dedup_hits : int;
}

type t = {
  tag : string;
  n : int;
  connected_only : bool;
  shards : int;
  shard : int;
  enum : enum;
  kept : int;
  completed : int;
  last_key : int;
  checked : int;
  passed : int;
  violations : int;
  violating_keys : int list;
  labelings : int;
  complete : bool;
  saved_at : int;
}

let timestamp_utc s =
  if s <= 0 then "unknown"
  else
    let tm = Unix.gmtime (float_of_int s) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let enum_json e =
  Json.Obj
    [
      ("candidates", Json.Int e.candidates);
      ("connected", Json.Int e.connected);
      ("classes", Json.Int e.classes);
      ("dedup_hits", Json.Int e.dedup_hits);
    ]

(* The integrity digest: MD5 of the compact rendering of every other
   member, in file order. It catches edits and corruption, not forgery. *)
let digest members =
  Digest.to_hex (Digest.string (Json.to_string (Json.Obj members)))

let body t =
  [
    ("schema_version", Json.Int schema_version);
    ("tag", Json.String t.tag);
    ("n", Json.Int t.n);
    ("connected", Json.Bool t.connected_only);
    ("shards", Json.Int t.shards);
    ("shard", Json.Int t.shard);
    ("enum", enum_json t.enum);
    ("kept", Json.Int t.kept);
    ("completed", Json.Int t.completed);
    ("last_key", Json.Int t.last_key);
    ("checked", Json.Int t.checked);
    ("passed", Json.Int t.passed);
    ("violations", Json.Int t.violations);
    ( "violating_keys",
      Json.List (List.map (fun k -> Json.Int k) t.violating_keys) );
    ("labelings_checked", Json.Int t.labelings);
    ("complete", Json.Bool t.complete);
    ("saved_at", Json.Int t.saved_at);
  ]

let to_json t =
  let members = body t in
  Json.Obj (members @ [ ("digest", Json.String (digest members)) ])

let ( let* ) = Json.( let* )

let field_int j k =
  let* v = Json.member k j in
  Json.to_int v

let field_str j k =
  let* v = Json.member k j in
  Json.to_str v

let field_bool j k =
  let* v = Json.member k j in
  Json.to_bool v

let enum_of_json j =
  let* candidates = field_int j "candidates" in
  let* connected = field_int j "connected" in
  let* classes = field_int j "classes" in
  let* dedup_hits = field_int j "dedup_hits" in
  Ok { candidates; connected; classes; dedup_hits }

let check_digest j =
  let* stored = field_str j "digest" in
  match j with
  | Json.Obj members
    when digest (List.filter (fun (k, _) -> k <> "digest") members) = stored ->
      Ok ()
  | _ -> Error "checkpoint digest mismatch: the file was edited or corrupted"

let of_json j =
  let* v = field_int j "schema_version" in
  if v <> schema_version then
    Error (Printf.sprintf "checkpoint schema %d, expected %d" v schema_version)
  else
    let* () = check_digest j in
    (* files from before the header dropped [strategy] still carry it;
       a mask-scan file's tallies are not an orderly sweep's *)
    let* () =
      match Json.member "strategy" j with
      | Ok (Json.String s) when s <> "orderly" ->
          Error (Printf.sprintf "checkpoint of a %s sweep; only orderly loads" s)
      | _ -> Ok ()
    in
    let* tag = field_str j "tag" in
    let* n = field_int j "n" in
    let* connected_only = field_bool j "connected" in
    let* shards = field_int j "shards" in
    let* shard = field_int j "shard" in
    let* ej = Json.member "enum" j in
    let* enum = enum_of_json ej in
    let* kept = field_int j "kept" in
    let* completed = field_int j "completed" in
    let* last_key = field_int j "last_key" in
    let* checked = field_int j "checked" in
    let* passed = field_int j "passed" in
    let* violations = field_int j "violations" in
    let* vk = Json.member "violating_keys" j in
    let* vk = Json.to_list vk in
    let* violating_keys = Json.map_m Json.to_int vk in
    let* labelings = field_int j "labelings_checked" in
    let* complete = field_bool j "complete" in
    let* saved_at = field_int j "saved_at" in
    Ok
      {
        tag;
        n;
        connected_only;
        shards;
        shard;
        enum;
        kept;
        completed;
        last_key;
        checked;
        passed;
        violations;
        violating_keys;
        labelings;
        complete;
        saved_at;
      }

(* ------------------------------------------------------------------ *)
(* disk discipline: write-to-tmp then rename, same as Sink             *)

let save ?now ~path t =
  let saved_at =
    match now with Some s -> s | None -> int_of_float (Unix.time ())
  in
  let t = { t with saved_at } in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (to_json t));
      output_char oc '\n');
  Sys.rename tmp path

let load path =
  match
    In_channel.with_open_text path (fun ic -> In_channel.input_all ic)
  with
  | exception Sys_error msg -> Error msg
  | raw ->
      Result.map_error
        (fun msg -> Printf.sprintf "%s: %s" path msg)
        (let* j = Json.of_string raw in
         of_json j)

(* ------------------------------------------------------------------ *)
(* shard merging                                                       *)

(* Everything that must be shard-invariant before counters may be
   summed: the sweep identity and the (shard-independent) enumeration
   tallies. *)
let header_mismatch a b =
  if a.tag <> b.tag then Some "tag"
  else if a.n <> b.n then Some "n"
  else if a.connected_only <> b.connected_only then Some "connected"
  else if a.shards <> b.shards then Some "shards"
  else if a.enum <> b.enum then Some "enumeration tallies"
  else None

let merge = function
  | [] -> Error "merge: no checkpoints"
  | first :: _ as cks -> (
      let bad =
        List.find_map
          (fun c ->
            match header_mismatch first c with
            | Some what ->
                Some (Printf.sprintf "merge: %s differs across checkpoints" what)
            | None ->
                if not c.complete then
                  Some
                    (Printf.sprintf
                       "merge: shard %d/%d is incomplete: %d/%d classes done \
                        (next chunk starts at class %d; last checkpoint %s)"
                       c.shard c.shards c.completed c.kept c.completed
                       (timestamp_utc c.saved_at))
                else None)
          cks
      in
      match bad with
      | Some msg -> Error msg
      | None ->
          let seen = List.sort compare (List.map (fun c -> c.shard) cks) in
          if seen <> List.init first.shards Fun.id then
            Error
              (Printf.sprintf
                 "merge: need every shard 0..%d exactly once, got {%s}"
                 (first.shards - 1)
                 (String.concat ","
                    (List.map string_of_int seen)))
          else
            let sum f = List.fold_left (fun acc c -> acc + f c) 0 cks in
            Ok
              {
                first with
                shards = 1;
                shard = 0;
                kept = sum (fun c -> c.kept);
                completed = sum (fun c -> c.completed);
                last_key = -1;
                checked = sum (fun c -> c.checked);
                passed = sum (fun c -> c.passed);
                violations = sum (fun c -> c.violations);
                violating_keys =
                  List.sort compare
                    (List.concat_map (fun c -> c.violating_keys) cks);
                labelings = sum (fun c -> c.labelings);
                complete = true;
                saved_at = 0;
              })

(* The merged-report rendering drops every shard-relative field
   (shards, shard, completed, last_key, complete), so merging K shard
   checkpoints and merging the single checkpoint of an unsharded run
   produce byte-identical files — that equality is the CI gate. *)
let report_json t =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("tag", Json.String t.tag);
      ("n", Json.Int t.n);
      ("connected", Json.Bool t.connected_only);
      ("enum", enum_json t.enum);
      ("kept", Json.Int t.kept);
      ("checked", Json.Int t.checked);
      ("passed", Json.Int t.passed);
      ("violations", Json.Int t.violations);
      ( "violating_keys",
        Json.List (List.map (fun k -> Json.Int k) t.violating_keys) );
      ("labelings_checked", Json.Int t.labelings);
    ]

type policy = { path : string; resume : bool; tag : string }
