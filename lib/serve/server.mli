(** The [lcp serve] daemon: Unix-domain-socket accept loop, per-
    connection reader threads, and a crew of worker domains draining a
    bounded {!Jobq} of admitted requests.

    The accept loop and the readers are systhreads on the main domain
    (they block on sockets); each worker is its own domain, so
    [workers] jobs run in parallel on [workers] cores. A job's request
    may also ask for [jobs > 1], which fans out over the domain pool on
    top of its worker, capped by {!Session.limits}[.max_jobs].

    Admission control: control requests (ping / metrics / shutdown)
    are answered inline by the connection thread; job requests are
    assigned a monotone id and either {e coalesced} onto an in-flight
    job with the same {!Protocol.coalesce_key} (the follower receives
    the identical final payload under its own id) or pushed to the
    queue — a full queue yields an immediate structured
    [rejected: queue_full] response, never a blocked client.

    Server counters (in the session's aggregate, reported by the
    [metrics] request): [serve/requests] (responses sent, counted
    just before the write),
    [serve/rejected], [serve/coalesced], [serve/expired],
    [serve/cache_warm_hits], and the [serve/queue_depth] gauge.

    While the daemon runs, {!Lcp_engine.Eval_cache} sharing is enabled
    so acceptance tables persist across requests ({!wait} disables it
    again on the way out). *)

type config = {
  socket_path : string;
  capacity : int;  (** job-queue bound; [0] refuses every job *)
  workers : int;  (** worker domains draining the queue, [1..max_workers] *)
  limits : Session.limits;
  version : string;  (** reported by [ping] *)
}

val max_workers : int
(** Ceiling on [workers] (64), well under the runtime's domain limit;
    [lcp serve] rejects [--workers] outside [1..max_workers]. *)

val default_config : socket_path:string -> config
(** capacity 16, 1 worker, {!Session.default_limits}, version ["dev"]. *)

type t

val start : config -> t
(** Bind, listen, spawn the accept loop and [workers] worker domains,
    and return immediately. Replaces a stale socket file at
    [socket_path]. Raises [Invalid_argument] if [workers] is outside
    [1..max_workers], before touching the socket path; [Failure] if
    the path exists and is not a socket; [Unix.Unix_error] if it
    cannot bind. *)

val wait : t -> unit
(** Block until the daemon shuts down (a [shutdown] request or
    {!stop}), then join workers — queued jobs are drained first —
    disable cache sharing, and unlink the socket. *)

val stop : t -> unit
(** Initiate shutdown, as if a [shutdown] request arrived. Idempotent;
    returns immediately — follow with {!wait}. *)

val metrics : t -> Lcp_obs.Metrics.t
