module Json = Lcp_obs.Json

type t = {
  n : int;
  tallies : Orderly.tallies;
  masks : int list;
}

exception Mismatch of string

let schema_version = 1

(* A001349: connected graphs on n = 0..11 unlabeled nodes. *)
let connected_graphs =
  [| 1; 1; 1; 2; 6; 21; 112; 853; 11117; 261080; 11716571; 1006700565 |]

(* A000088: all graphs on n = 0..11 unlabeled nodes. *)
let all_graphs =
  [| 1; 1; 2; 4; 11; 34; 156; 1044; 12346; 274668; 12005168; 1018997864 |]

let rec ascending ~bound ~prev i = function
  | [] -> Ok ()
  | m :: rest ->
      if m < 0 || m >= bound then
        Error (Printf.sprintf "mask %d at position %d is out of range" m i)
      else if m <= prev then
        Error (Printf.sprintf "masks are not ascending at position %d" i)
      else ascending ~bound ~prev:m (i + 1) rest

let make ~n (tallies : Orderly.tallies) masks =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let count = List.length masks in
  if n < 1 || n > Canon.max_order then
    fail "order %d is outside 1..%d" n Canon.max_order
  else if tallies.connected_classes <> connected_graphs.(n) then
    fail "%d connected classes on %d nodes, but A001349(%d) = %d"
      tallies.connected_classes n n connected_graphs.(n)
  else if tallies.classes_all <> all_graphs.(n) then
    fail "%d classes on %d nodes, but A000088(%d) = %d" tallies.classes_all n
      n all_graphs.(n)
  else if tallies.classes <> tallies.connected_classes then
    fail "the tallies count %d classes, but their connected filter keeps %d"
      tallies.classes tallies.connected_classes
  else if count <> tallies.classes then
    fail "%d masks, but the tallies count %d classes" count tallies.classes
  else
    Result.map
      (fun () -> { n; tallies; masks })
      (ascending ~bound:(1 lsl Chunk.slots n) ~prev:(-1) 0 masks)

let tallies_json (e : Orderly.tallies) =
  Json.Obj
    [
      ("candidates", Json.Int e.candidates);
      ("dedup_hits", Json.Int e.dedup_hits);
      ("classes_all", Json.Int e.classes_all);
      ("connected_classes", Json.Int e.connected_classes);
      ("classes", Json.Int e.classes);
    ]

let save ~path t =
  Sealed.save ~path
    [
      ("schema_version", Json.Int schema_version);
      ("n", Json.Int t.n);
      ("connected", Json.Bool true);
      ("tallies", tallies_json t.tallies);
      ("count", Json.Int (List.length t.masks));
      ("masks", Json.List (List.map (fun m -> Json.Int m) t.masks));
    ]

let ( let* ) = Json.( let* )

let int_member k j =
  let* v = Json.member k j in
  Json.to_int v

let of_json j =
  let* v = int_member "schema_version" j in
  if v <> schema_version then
    Error (Printf.sprintf "class listing schema %d, expected %d" v schema_version)
  else
    let* () = Sealed.check ~what:"class listing" j in
    let* n = int_member "n" j in
    let* connected = Result.bind (Json.member "connected" j) Json.to_bool in
    let* () =
      if connected then Ok ()
      else Error "an all-graphs listing (\"connected\": false); only \
                  connected listings load"
    in
    let* tj = Json.member "tallies" j in
    let* candidates = int_member "candidates" tj in
    let* dedup_hits = int_member "dedup_hits" tj in
    let* classes_all = int_member "classes_all" tj in
    let* connected_classes = int_member "connected_classes" tj in
    let* classes = int_member "classes" tj in
    let* count = int_member "count" j in
    let* masks = Result.bind (Json.member "masks" j) Json.to_list in
    let* masks = Json.map_m Json.to_int masks in
    if count <> List.length masks then
      Error
        (Printf.sprintf "count %d, but %d masks are listed" count
           (List.length masks))
    else
      make ~n
        { candidates; dedup_hits; classes_all; connected_classes; classes }
        masks

let load path =
  Result.bind (Sealed.read ~terminated:true path) (fun j ->
      Result.map_error (Printf.sprintf "%s: %s" path) (of_json j))
