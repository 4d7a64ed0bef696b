(** The [lcp serve] wire protocol: newline-delimited, schema-versioned
    JSON over a Unix-domain socket.

    Every line the client writes is one {!request}; every line the
    server writes is either an interim {!event} (only when the request
    asked for [progress]) or the final {!response} for an admitted
    request. Requests are answered in admission order per connection;
    a client runs one request at a time per connection.

    Parsing is {e tolerant of unknown fields} (a newer client may send
    members this server ignores) and {e strict about the schema
    version}: a [schema_version] other than {!schema_version} is
    rejected, an absent one is assumed current. The one exception to
    the tolerance: the retired options [eval_cache] and [orbit_prune],
    which once selected the reference search paths, are rejected by
    name — ignoring them would answer with different tallies than the
    client asked for. *)

module Json = Lcp_obs.Json

val schema_version : int

(** {1 Requests} *)

type run_opts = {
  jobs : int option;  (** domain-pool width, capped by the server *)
  heavy : bool option;
  seed : int option;
  deadline_ms : int option;
      (** budget from {e admission}: queue wait counts against it *)
  progress : bool;  (** stream interim {!event}s before the response *)
}

val default_opts : run_opts

type kind =
  | Ping
  | Metrics  (** the server's aggregate counters/gauges/spans *)
  | Shutdown
  | Check of { decoder : string; graph : string }
      (** one-graph property check (completeness facts + exhaustive
          soundness search on non-bipartite graphs) *)
  | Prove of { decoder : string; graph : string }
      (** honest-prover certificates for one graph *)
  | Sweep of {
      decoder : string;
      n : int;
      strategy : string;
          (** must be ["orderly"] (the default), the one enumerator;
              {!Session} refuses anything else as a usage error *)
      early_exit : bool;
      shards : int;
          (** 1 = run in-process (the historical behaviour; the field
              is omitted from the wire form so unsharded requests keep
              their coalesce keys); K >= 2 = coordinate K forked shard
              workers on the server's host and respond with the merged
              report *)
    }
  | Lint of { decoders : string list; max_n : int option; samples : int option }

type request = { kind : kind; opts : run_opts }

val kind_name : kind -> string

val is_control : kind -> bool
(** Control requests ([ping]/[metrics]/[shutdown]) bypass the job
    queue and are answered inline by the connection handler. *)

val request_of_json : Json.t -> (request, string) result
val request_to_json : request -> Json.t

val coalesce_key : request -> string option
(** A canonical identity for job requests: two requests with equal
    keys compute identical results, so an arrival whose key is already
    in flight shares the in-flight computation instead of enqueueing.
    [None] for control requests. The [progress] flag is presentation
    and is excluded from the key. *)

(** {1 Responses} *)

type status =
  | Done  (** ["ok"]: the job ran; the verdict lives in [result] *)
  | Rejected  (** ["rejected"]: admission refused (queue full, shutdown) *)
  | Failed  (** ["error"]: bad request or execution failure *)
  | Expired  (** ["expired"]: the deadline passed before completion *)

val status_name : status -> string
val status_of_name : string -> status option

type response = {
  id : int;  (** server-assigned monotone request id *)
  kind : string;
  status : status;
  reason : string option;  (** e.g. ["queue_full"] on rejection *)
  result : Json.t;
}

val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

(** {1 Interim events} *)

type event = { event_id : int; body : Lcp_obs.Sink.event }

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

val is_event : Json.t -> bool
(** Distinguishes an interim event line from a final response line. *)
