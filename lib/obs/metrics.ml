type span_cell = { mutable entries : int; mutable total_ns : int }

(* Locking discipline: every access to the tables and the span stack
   happens under [lock] (an instrumented {!Sync.mutex}, leaf-level:
   nothing else is ever acquired while holding it). [guard] is the
   Sync shadow var standing in for the tables themselves, so
   [lcp race] can prove the discipline holds under any schedule. *)
type t = {
  lock : Sync.mutex;
  guard : unit Sync.Var.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  span_cells : (string, span_cell) Hashtbl.t;
  mutable stack : string list;  (** innermost-first span paths *)
}

let create () =
  {
    lock = Sync.mutex "obs/metrics";
    guard = Sync.Var.make "obs/metrics.tables" ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    span_cells = Hashtbl.create 16;
    stack = [];
  }

let locked t f = Sync.with_lock t.lock f
let mutating t f = locked t (fun () -> Sync.Var.touch t.guard; f ())
let reading t f = locked t (fun () -> Sync.Var.observe t.guard; f ())

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl name r;
      r

let incr t ?(by = 1) name =
  mutating t (fun () ->
      let r = cell t.counters name in
      r := !r + by)

let counter t name =
  reading t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let set_gauge t name v = mutating t (fun () -> cell t.gauges name := v)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = reading t (fun () -> sorted_bindings t.counters ( ! ))
let gauges t = reading t (fun () -> sorted_bindings t.gauges ( ! ))

(* ------------------------------------------------------------------ *)
(* spans                                                               *)

let record_span t path ns =
  mutating t (fun () ->
      match Hashtbl.find_opt t.span_cells path with
      | Some c ->
          c.entries <- c.entries + 1;
          c.total_ns <- c.total_ns + ns
      | None -> Hashtbl.replace t.span_cells path { entries = 1; total_ns = ns })

let with_span ?enter ?leave t name f =
  let path =
    mutating t (fun () ->
        let path =
          match t.stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
        in
        t.stack <- path :: t.stack;
        path)
  in
  Option.iter (fun g -> g path) enter;
  let t0 = Clock.now_ns () in
  let finish () =
    let ns = Clock.now_ns () - t0 in
    mutating t (fun () ->
        match t.stack with p :: rest when p == path -> t.stack <- rest | _ -> ());
    record_span t path ns;
    Option.iter (fun g -> g path ns) leave
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t =
  reading t (fun () ->
      sorted_bindings t.span_cells (fun c -> (c.entries, c.total_ns)))

(* ------------------------------------------------------------------ *)
(* serialization                                                       *)

(* v2: the engine's [masks_scanned] counter became
   [candidates_generated] when enumeration grew a second strategy
   (orderly generation) whose candidates are not masks. Only v2 files
   load: a v1 file's counters would mix the two vocabularies. *)
let schema_version = 2

let to_json t =
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("counters", ints (counters t));
      ("gauges", ints (gauges t));
      ( "spans",
        Json.Obj
          (List.map
             (fun (path, (entries, total_ns)) ->
               ( path,
                 Json.Obj
                   [
                     ("entries", Json.Int entries);
                     ("wall_ns", Json.Int total_ns);
                   ] ))
             (spans t)) );
    ]

let of_json json =
  let open Json in
  let* v = member "schema_version" json in
  let* v = to_int v in
  if v <> schema_version then
    Error (Printf.sprintf "metrics: unsupported schema_version %d" v)
  else
    let t = create () in
    let each name f =
      let* obj = member name json in
      let* fields =
        match obj with
        | Obj fields -> Ok fields
        | _ -> Error (Printf.sprintf "metrics: %S is not an object" name)
      in
      map_m (fun (k, v) -> f k v) fields
    in
    let* _ =
      each "counters" (fun k v ->
          let* n = to_int v in
          incr t ~by:n k;
          Ok ())
    in
    let* _ =
      each "gauges" (fun k v ->
          let* n = to_int v in
          set_gauge t k n;
          Ok ())
    in
    let* _ =
      each "spans" (fun path v ->
          let* entries = let* e = member "entries" v in to_int e in
          let* total = let* w = member "wall_ns" v in to_int w in
          mutating t (fun () ->
              Hashtbl.replace t.span_cells path { entries; total_ns = total });
          Ok ())
    in
    Ok t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (path, (entries, ns)) ->
      Format.fprintf ppf "span    %-40s %8.3fs (x%d)@," path
        (float_of_int ns /. 1e9)
        entries)
    (spans t);
  List.iter
    (fun (k, v) -> Format.fprintf ppf "counter %-40s %d@," k v)
    (counters t);
  List.iter (fun (k, v) -> Format.fprintf ppf "gauge   %-40s %d@," k v) (gauges t);
  Format.fprintf ppf "@]"
