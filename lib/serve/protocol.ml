module Json = Lcp_obs.Json

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* requests                                                            *)

type run_opts = {
  jobs : int option;
  heavy : bool option;
  seed : int option;
  deadline_ms : int option;
  progress : bool;
}

let default_opts =
  {
    jobs = None;
    heavy = None;
    seed = None;
    deadline_ms = None;
    progress = false;
  }

type kind =
  | Ping
  | Metrics
  | Shutdown
  | Check of { decoder : string; graph : string }
  | Prove of { decoder : string; graph : string }
  | Sweep of {
      decoder : string;
      n : int;
      strategy : string;
      early_exit : bool;
      shards : int;
    }
  | Sweep_shard of {
      decoder : string;
      n : int;
      strategy : string;
      shards : int;
      shard : int;
    }
  | Lint of { decoders : string list; max_n : int option; samples : int option }

type request = { kind : kind; opts : run_opts }

let kind_name = function
  | Ping -> "ping"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"
  | Check _ -> "check"
  | Prove _ -> "prove"
  | Sweep _ -> "sweep"
  | Sweep_shard _ -> "sweep-shard"
  | Lint _ -> "lint"

let is_control = function
  | Ping | Metrics | Shutdown -> true
  | Check _ | Prove _ | Sweep _ | Sweep_shard _ | Lint _ -> false

(* Tolerant accessors: absent members become defaults, members of the
   wrong shape are errors. Unknown members are ignored throughout —
   newer clients may send fields this server does not know about —
   except the retired ones below. *)
let opt_member name conv json ~default =
  match Json.member name json with
  | Error _ -> Ok default
  | Ok Json.Null -> Ok default
  | Ok v -> conv v

let opt_int name json =
  opt_member name (fun v -> Result.map Option.some (Json.to_int v)) json
    ~default:None

let opt_bool name json =
  opt_member name (fun v -> Result.map Option.some (Json.to_bool v)) json
    ~default:None

let opt_str name json ~default =
  opt_member name Json.to_str json ~default

(* Options older clients could send to pick the reference search
   paths. Ignoring them would quietly answer with production tallies
   that differ from what the client asked for, so they are refused. *)
let retired_opts = [ "eval_cache"; "orbit_prune" ]

let opts_of_json json =
  let open Json in
  let* () =
    match List.find_opt (fun k -> Result.is_ok (member k json)) retired_opts with
    | Some k ->
        Error
          (Printf.sprintf
             "request member %S was removed: the server always uses the \
              acceptance tables and the orbit quotient"
             k)
    | None -> Ok ()
  in
  let* jobs = opt_int "jobs" json in
  let* heavy = opt_bool "heavy" json in
  let* seed = opt_int "seed" json in
  let* deadline_ms = opt_int "deadline_ms" json in
  let* progress = opt_member "progress" to_bool json ~default:false in
  Ok { jobs; heavy; seed; deadline_ms; progress }

let request_of_json json =
  let open Json in
  let* v =
    opt_member "schema_version" to_int json ~default:schema_version
  in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d (want %d)" v schema_version)
  else
    let* kind_s = let* k = member "kind" json in to_str k in
    let* opts = opts_of_json json in
    let* kind =
      match kind_s with
      | "ping" -> Ok Ping
      | "metrics" -> Ok Metrics
      | "shutdown" -> Ok Shutdown
      | "check" | "prove" ->
          let* decoder = let* d = member "decoder" json in to_str d in
          let* graph = let* g = member "graph" json in to_str g in
          Ok
            (if kind_s = "check" then Check { decoder; graph }
             else Prove { decoder; graph })
      | "sweep" ->
          let* decoder = opt_str "decoder" json ~default:"degree-one" in
          let* n = opt_member "n" to_int json ~default:6 in
          let* strategy = opt_str "strategy" json ~default:"orderly" in
          let* early_exit =
            opt_member "early_exit" to_bool json ~default:false
          in
          let* shards = opt_member "shards" to_int json ~default:1 in
          Ok (Sweep { decoder; n; strategy; early_exit; shards })
      | "sweep-shard" ->
          let* decoder = opt_str "decoder" json ~default:"degree-one" in
          let* n = opt_member "n" to_int json ~default:6 in
          let* strategy = opt_str "strategy" json ~default:"orderly" in
          let* shards = opt_member "shards" to_int json ~default:1 in
          let* shard = opt_member "shard" to_int json ~default:0 in
          Ok (Sweep_shard { decoder; n; strategy; shards; shard })
      | "lint" ->
          let* decoders =
            opt_member "decoders"
              (fun v ->
                let* l = to_list v in
                map_m to_str l)
              json ~default:[]
          in
          let* max_n = opt_int "max_n" json in
          let* samples = opt_int "samples" json in
          Ok (Lint { decoders; max_n; samples })
      | other -> Error (Printf.sprintf "unknown request kind %S" other)
    in
    Ok { kind; opts }

let request_to_json { kind; opts } =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let base =
    [ ("schema_version", Json.Int schema_version);
      ("kind", Json.String (kind_name kind)) ]
  in
  let kind_fields =
    match kind with
    | Ping | Metrics | Shutdown -> []
    | Check { decoder; graph } | Prove { decoder; graph } ->
        [ ("decoder", Json.String decoder); ("graph", Json.String graph) ]
    | Sweep { decoder; n; strategy; early_exit; shards } ->
        [
          ("decoder", Json.String decoder);
          ("n", Json.Int n);
          ("strategy", Json.String strategy);
          ("early_exit", Json.Bool early_exit);
        ]
        (* emitted only when sharded: unsharded sweeps keep their
           pre-coordinator wire bytes (and coalesce keys) *)
        @ (if shards <> 1 then [ ("shards", Json.Int shards) ] else [])
    | Sweep_shard { decoder; n; strategy; shards; shard } ->
        [
          ("decoder", Json.String decoder);
          ("n", Json.Int n);
          ("strategy", Json.String strategy);
          ("shards", Json.Int shards);
          ("shard", Json.Int shard);
        ]
    | Lint { decoders; max_n; samples } ->
        (("decoders", Json.List (List.map (fun d -> Json.String d) decoders))
         :: opt "max_n" (fun v -> Json.Int v) max_n)
        @ opt "samples" (fun v -> Json.Int v) samples
  in
  let opt_fields =
    opt "jobs" (fun v -> Json.Int v) opts.jobs
    @ opt "heavy" (fun v -> Json.Bool v) opts.heavy
    @ opt "seed" (fun v -> Json.Int v) opts.seed
    @ opt "deadline_ms" (fun v -> Json.Int v) opts.deadline_ms
    @ (if opts.progress then [ ("progress", Json.Bool true) ] else [])
  in
  Json.Obj (base @ kind_fields @ opt_fields)

(* The admission-control identity of a request: two requests with the
   same key compute the same result and may be coalesced. [progress]
   is presentation, not computation, so it is excluded; everything
   else (including jobs — conservative, the engine is jobs-invariant)
   is included verbatim. *)
let coalesce_key req =
  if is_control req.kind then None
  else
    Some
      (Json.to_string
         (request_to_json { req with opts = { req.opts with progress = false } }))

(* ------------------------------------------------------------------ *)
(* responses and interim events                                        *)

type status = Done | Rejected | Failed | Expired

let status_name = function
  | Done -> "ok"
  | Rejected -> "rejected"
  | Failed -> "error"
  | Expired -> "expired"

let status_of_name = function
  | "ok" -> Some Done
  | "rejected" -> Some Rejected
  | "error" -> Some Failed
  | "expired" -> Some Expired
  | _ -> None

type response = {
  id : int;
  kind : string;
  status : status;
  reason : string option;
  result : Json.t;
}

let response_to_json r =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("id", Json.Int r.id);
       ("kind", Json.String r.kind);
       ("status", Json.String (status_name r.status));
     ]
    @ (match r.reason with
      | None -> []
      | Some reason -> [ ("reason", Json.String reason) ])
    @ [ ("result", r.result) ])

let response_of_json json =
  let open Json in
  let* v = opt_member "schema_version" to_int json ~default:schema_version in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" v)
  else
    let* id = let* i = member "id" json in to_int i in
    let* kind = let* k = member "kind" json in to_str k in
    let* status_s = let* s = member "status" json in to_str s in
    let* status =
      match status_of_name status_s with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "unknown status %S" status_s)
    in
    let* reason =
      opt_member "reason" (fun v -> Result.map Option.some (to_str v)) json
        ~default:None
    in
    let result =
      match member "result" json with Ok r -> r | Error _ -> Json.Null
    in
    Ok { id; kind; status; reason; result }

type event = {
  event_id : int;
  body : Lcp_obs.Sink.event;
}

let event_to_json { event_id; body } =
  let fields =
    match body with
    | Lcp_obs.Sink.Span_start path ->
        [ ("event", Json.String "span_start"); ("path", Json.String path) ]
    | Lcp_obs.Sink.Span_end (path, ns) ->
        [
          ("event", Json.String "span_end");
          ("path", Json.String path);
          ("wall_ns", Json.Int ns);
        ]
    | Lcp_obs.Sink.Progress line ->
        [ ("event", Json.String "progress"); ("line", Json.String line) ]
  in
  Json.Obj
    (("schema_version", Json.Int schema_version)
     :: ("id", Json.Int event_id)
     :: fields)

let event_of_json json =
  let open Json in
  let* event_id = let* i = member "id" json in to_int i in
  let* ev = let* e = member "event" json in to_str e in
  let* body =
    match ev with
    | "span_start" ->
        let* path = let* p = member "path" json in to_str p in
        Ok (Lcp_obs.Sink.Span_start path)
    | "span_end" ->
        let* path = let* p = member "path" json in to_str p in
        let* ns = let* w = member "wall_ns" json in to_int w in
        Ok (Lcp_obs.Sink.Span_end (path, ns))
    | "progress" ->
        let* line = let* l = member "line" json in to_str l in
        Ok (Lcp_obs.Sink.Progress line)
    | other -> Error (Printf.sprintf "unknown event %S" other)
  in
  Ok { event_id; body }

let is_event json = Result.is_ok (Json.member "event" json)
