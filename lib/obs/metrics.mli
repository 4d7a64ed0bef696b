(** The aggregate metrics registry behind a {!Run_cfg.t}: named
    counters, named gauges, and wall-clock spans with a parent stack.

    One registry is threaded through a whole run (a sweep, an experiment
    battery, a bench series); everything it accumulates renders to one
    JSON document via {!to_json} and parses back via {!of_json}, so
    sweep metrics files and [BENCH_*.json] trajectories share a schema.

    {b Determinism contract.} Counters incremented from inside engine
    work items (classes enumerated, labelings checked, cache hits) are
    deterministic by construction: work items produce the same
    increments regardless of which domain runs them, and integer
    addition commutes. Gauges and spans measure the actual execution
    (per-domain task counts, wall time) and legitimately vary between
    runs — a consumer comparing [jobs=1] against [jobs=N] output must
    compare counters, not gauges.

    {b Thread safety.} [incr] and [set_gauge] may be called from any
    domain (they take an internal lock). The span stack is a single
    parent chain, so [with_span] must only be called from the
    orchestrating domain — never from pool workers. *)

type t

val create : unit -> t

(** {1 Counters} — monotone sums, deterministic across [jobs]. *)

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to a named counter, creating it at 0 first.
    [incr t ~by:0 name] just materializes the counter, which keeps the
    serialized key set identical between runs that happen to never hit
    it. *)

val counter : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Gauges} — last-write-wins observations. *)

val set_gauge : t -> string -> int -> unit

(** {1 Spans} — wall-clock intervals with a parent stack. *)

val with_span :
  ?enter:(string -> unit) ->
  ?leave:(string -> int -> unit) ->
  t ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span t name f] runs [f] inside a span. The span's path is
    [parent/name] for the innermost open span ([name] at top level);
    its wall time and entry count accumulate per path, so a span
    entered in a loop aggregates. The span is recorded (and the stack
    popped) even when [f] raises. [enter path] fires before [f],
    [leave path wall_ns] after — the {!Sink} hook points. *)

(** {1 Serialization} *)

val to_json : t -> Json.t
(** [{ "schema_version"; "counters"; "gauges"; "spans" }] with every
    key set sorted, so equal registries render byte-identically; a
    span renders as [{ "entries"; "wall_ns" }]. The schema version is
    currently [2]: v2 renamed the engine's [masks_scanned] counter to
    [candidates_generated] (enumeration strategies other than the mask
    scan count candidates that are not masks); the JSON layout is
    unchanged. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} (up to span-stack state, which is not
    serialized): [of_json (to_json t)] renders back to the same JSON.
    Any other [schema_version] is an error naming the version. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump (the stderr sink's flush format). *)
