(** Server-side request execution: turn an admitted {!Protocol.request}
    into a result payload under a per-request {!Lcp_obs.Run_cfg.t}.

    One {!t} lives for the whole daemon: it owns the server-wide
    {!Lcp_obs.Metrics.t} aggregate (what a [metrics] request reports)
    and the admission {!limits} that cap client-supplied knobs. The
    warm state itself — the iso-class listings of
    {!Lcp_engine.Sweep.iso_classes} and the shared
    {!Lcp_engine.Eval_cache} acceptance tables — is process-global and
    persists across requests by construction; this module only
    accounts for it ([serve/cache_warm_hits]).

    {b Determinism contract}: for equal requests, every counter in
    {!work_counter_names} and every verdict/witness byte in the payload
    is identical whether the job runs one-shot or against a warm
    daemon, and for any [jobs]. The class and evaluation cache counters
    reported under ["cache"] are cache-temperature observations and are
    excluded from that contract. *)

type limits = {
  max_jobs : int;
  max_n : int;  (** sweep order cap, and the soundness-search cap for [check] *)
  max_lint_n : int;
  max_samples : int;
  max_deadline_ms : int option;  (** cap on client deadlines, if any *)
  max_shards : int;  (** cap on a sweep request's [shards] *)
  shard_bin : string;
      (** executable the coordinator forks shard workers from.
          Defaults to [Sys.executable_name] — right for the real
          daemon, overridden by in-process test servers whose
          executable is the test runner. *)
}

val default_limits : limits

val engine_limits : limits
(** The engine's own bounds, for a session that runs the caller's own
    requests in-process (the CLI): sweep and lint orders up to
    {!Lcp_engine.Canon.max_order}, no sample or shard cap. *)

type t = {
  limits : limits;
  version : string;
  metrics : Lcp_obs.Metrics.t;
  started_at : float;
}

val create : ?limits:limits -> ?version:string -> unit -> t

exception Usage of string
(** A malformed request: unknown decoder or strategy, bad graph spec,
    an argument outside [limits] or outside the request's shards, a
    checkpoint that does not match its sweep on resume. {!execute}
    answers it as {!Protocol.Failed} with a reason starting
    ["usage: "]. *)

val find_suite : string -> Lcp.Registry.entry
(** The registry entry of a decoder key. @raise Usage on an unknown key. *)

val parse_graph : string -> Lcp_graph.Graph.t
(** {!Lcp_graph.Builders.of_spec}. @raise Usage on a bad spec. *)

val cfg_of_request :
  t ->
  Protocol.request ->
  emit:(Lcp_obs.Sink.event -> unit) ->
  Lcp_obs.Run_cfg.t
(** Build the per-request cfg {e at admission time} — queue wait counts
    against the deadline. Client knobs are capped by [t.limits]; [emit]
    receives span/progress events iff the request asked for
    [progress]. *)

(** An in-process caller's shard workers for a coordinated [sweep]:
    what differs from the daemon's own (a private directory, workers
    forked from [limits.shard_bin] on the request's pool width, the
    default supervision knobs). *)
type coordination = {
  workers : int;  (** max simultaneously running workers *)
  jobs : int;  (** domain-pool width inside each worker *)
  dir : string option;
      (** shard checkpoint directory, kept after the run; [None] makes
          a private one, removed after a run that answered and kept
          (named in the failure) after one that failed *)
  stall_s : float option;
  max_restarts : int option;
  inject_kill : int option;  (** must name a shard of the request *)
}

(** Where an in-process caller runs a [sweep] request; the wire has no
    form for either. *)
type placement =
  | Slice of {
      shard : int;
      checkpoint : Lcp_engine.Checkpoint.policy option;
      max_chunks : int option;
    }
      (** sweep shard [shard] of the request's [shards] here (the whole
          space when [shards = 1]), optionally checkpointed; the
          checkpoint file is the record, the payload does not carry
          it. A checkpoint that does not match the sweep on resume is
          a usage error. *)
  | Coordinate of coordination
      (** coordinate the request's [shards] (>= 1) shard workers as
          the caller describes them *)

val execute :
  ?placement:placement ->
  t ->
  Protocol.request ->
  Lcp_obs.Run_cfg.t ->
  Protocol.status * string option * Lcp_obs.Json.t
(** Run one admitted job. Never raises: usage problems and execution
    failures come back as {!Protocol.Failed} with a reason, an already
    expired deadline as {!Protocol.Expired}. On return the request's
    counters have been folded into [t.metrics] and
    [serve/cache_warm_hits] bumped by the request's warm-state hits.
    Control kinds must not be passed here. [placement] applies to
    [sweep] requests only; without it a [sweep] with [shards = 1] runs
    in-process and one with [shards >= 2] is coordinated over subprocess
    workers of [limits.shard_bin] in a private temporary directory. *)

val ping_payload : t -> Lcp_obs.Json.t
val metrics_payload : t -> Lcp_obs.Json.t
