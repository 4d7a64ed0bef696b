(** The one record threaded through every run.

    [Run_cfg.t] replaces the scattered [?jobs:int] / [?heavy:bool]
    optionals that used to decorate {!Lcp.Checker}, {!Lcp.Experiments},
    the sweep engine and both CLI entry points. A front-end builds one
    [t] (from flags, or [default]), and every layer below reads its
    parallelism, its RNG seed, its deadline, and reports into its
    {!Metrics.t} / {!Sink.t}.

    Copies made with [with_jobs] / [sequential] share the original's
    metrics registry and sink, so a sub-phase forced sequential still
    reports into the same aggregate. *)

type t = {
  jobs : int;  (** worker domains for engine fan-out; >= 1 *)
  heavy : bool;  (** run the expensive experiment variants *)
  seed : int;  (** root seed for every [rng] derived from this cfg *)
  sink : Sink.t;  (** where spans / progress / the final flush go *)
  deadline : float option;  (** wall-clock budget in seconds, if any *)
  metrics : Metrics.t;  (** the aggregate registry for this run *)
  t0 : float;  (** creation time, origin for [deadline] *)
}

val make :
  ?jobs:int ->
  ?heavy:bool ->
  ?seed:int ->
  ?sink:Sink.t ->
  ?deadline:float ->
  unit ->
  t
(** Fresh cfg with a fresh metrics registry. [jobs] absent or [<= 0]
    means [Domain.recommended_domain_count ()]; [heavy] defaults to
    [true]; [seed] to the repo-wide experiment seed 20250706;
    [sink] to {!Sink.null}; no deadline. *)

val default : t
(** A shared cfg built once at module init with [make ()]. Callers that
    pass no cfg all report into this one registry. *)

val with_jobs : t -> int -> t
(** Same run (same metrics, sink, seed, deadline), different
    parallelism. [<= 0] means the recommended domain count. *)

val sequential : t -> t
(** [with_jobs t 1] — for phases whose semantics require a single
    domain (shared RNG state, ordered folds). *)

val rng : t -> Random.State.t
(** A fresh PRNG seeded from [t.seed]. Every call returns an identical
    state, so two phases that each take [rng cfg] see the same stream —
    reproducibility is per-phase, not global. *)

(** {1 Reporting through the cfg} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** {!Metrics.with_span} on [t.metrics], with {!Sink.Span_start} /
    {!Sink.Span_end} emitted to [t.sink]. *)

val count : t -> ?by:int -> string -> unit
(** {!Metrics.incr} on [t.metrics]. Safe from any domain. *)

val set_gauge : t -> string -> int -> unit
val progress : t -> string -> unit
(** Emit a {!Sink.Progress} line. *)

val flush : t -> unit
(** Hand the aggregate metrics to the sink, once, at end of run. *)

(** {1 Deadline} *)

val remaining_s : t -> float option
(** Seconds left before the deadline ([None] if no deadline). May be
    negative once expired. *)

val expired : t -> bool
(** [true] iff a deadline is set and has passed. *)
