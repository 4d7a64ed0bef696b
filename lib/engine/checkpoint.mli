(** Sweep progress checkpoints: the durable state of a (possibly
    sharded) exhaustive sweep, written atomically after every execution
    chunk so a killed run resumes where it stopped instead of starting
    over — the difference between "an n = 8 sweep fits in a lunch
    break" and "an n = 8 sweep fits in whatever slices the machine
    grants you".

    A checkpoint is a single schema-versioned JSON object, sealed by a
    [digest] member: the MD5 of the compact rendering of every other
    member. {!of_json} (and so {!load}) refuses a file whose digest is
    missing or does not match, so a hand-edited or corrupted counter
    cannot merge silently into a report. Its header
    (tag, order, connectivity filter, shard coordinates, and
    the shard-independent enumeration tallies) pins down {e which}
    sweep the counters belong to; {!Sweep} refuses to resume from a
    checkpoint whose header or class stream disagrees with the run it
    is asked to continue. Progress is tracked positionally — [completed]
    classes of the [kept] shard-local targets, cross-checked against
    [last_key], the class key ({!Chunk.wide_mask_of_graph} of the
    representative) of the most recently finished class.

    Violations are stored as class keys ([violating_keys], ascending),
    not instances: keys are stable across processes and mergeable
    across shards, and the violating instance itself is deterministic,
    so the sweep rebuilds it from the smallest key on demand.

    All counters are deterministic, so per-shard checkpoints of a K-way
    sharded sweep {!merge} into exactly the record an unsharded run
    would have written: that equality, rendered through
    {!report_json}, is the CI gate for the sharding layer. *)

val schema_version : int
(** Current on-disk schema: 2 (schema 1 had no digest). {!load}
    rejects anything else. *)

type enum = {
  candidates : int;
  connected : int;
  classes : int;
  dedup_hits : int;
}
(** The enumeration tallies of {!Sweep.counters}, frozen into the
    header. The shard filter applies {e after} enumeration, so these
    are identical across all shards of one sweep — {!merge} validates
    that instead of summing. *)

type t = {
  tag : string;  (** caller identity, e.g. the decoder key *)
  n : int;
  connected_only : bool;
  shards : int;  (** total shard count; 1 = unsharded *)
  shard : int;  (** this run's shard index, [0 <= shard < shards] *)
  enum : enum;
  kept : int;  (** shard-local targets surviving [keep] *)
  completed : int;  (** classes finished, a prefix of the target order *)
  last_key : int;  (** class key of target [completed - 1]; -1 if none *)
  checked : int;
  passed : int;
  violations : int;
  violating_keys : int list;  (** ascending *)
  labelings : int;
      (** the sweep's [labelings_checked] contribution so far,
          including any resumed-from checkpoint's share *)
  complete : bool;  (** [completed = kept] *)
  saved_at : int;
      (** heartbeat: epoch seconds at the moment {!save} wrote the
          file, 0 when unknown (in-memory records that were never
          saved, {!merge} results). A supervisor watching the file treats a stale
          [saved_at] on a live process as a stalled worker. *)
}

type policy = { path : string; resume : bool; tag : string }
(** What a caller hands {!Sweep.run}: where to write, whether an
    existing file at [path] should be continued (it is overwritten
    from scratch otherwise), and the tag to stamp into the header. *)

val to_json : t -> Lcp_obs.Json.t
(** The record's members followed by their [digest]. *)

val of_json : Lcp_obs.Json.t -> (t, string) result
(** Decode, after checking the schema version and then the digest: a
    missing or mismatching digest is an [Error]. Members the record
    does not carry are ignored once the digest covers them, so files
    from before the header dropped its [strategy] member still load —
    unless that member names an enumerator other than ["orderly"]. *)

val save : ?now:int -> path:string -> t -> unit
(** Atomic write: serialize to [path ^ ".tmp"], then rename over
    [path] — a kill mid-write leaves the previous checkpoint intact
    (the same discipline {!Lcp_obs.Sink} uses). Stamps [saved_at]
    with [now] (default: the current epoch second), so every write
    doubles as a liveness heartbeat. *)

val load : string -> (t, string) result
(** Read and decode; I/O, parse, schema and digest errors all come back
    as [Error] with a readable message that names [path]. *)

val header_mismatch : t -> t -> string option
(** The first header field (tag, n, connectivity, shard
    count, enumeration tallies) on which the two checkpoints disagree,
    or [None] when they describe the same sweep. {!Sweep} uses it to
    refuse a foreign resume; {!merge} uses it across shards. *)

val timestamp_utc : int -> string
(** Render a [saved_at] heartbeat as an ISO-8601 UTC instant
    ("2026-08-09T12:34:56Z"), or ["unknown"] for 0. *)

val merge : t list -> (t, string) result
(** Fold the per-shard checkpoints of one sweep into the unsharded
    totals: validates that every header field and the enumeration
    tallies agree, that each of shards [0..shards-1] appears exactly
    once, and that all are complete (an incomplete shard is reported
    with its index, progress, and last heartbeat); then sums [kept] / [checked] /
    [passed] / [violations] / [labelings], sorts the union of
    [violating_keys], and resets the shard coordinates to the
    unsharded [1/0]. Merging the single checkpoint of an unsharded run
    is the identity on the counters, so both sides of the CI
    comparison go through this same function. *)

val report_json : t -> Lcp_obs.Json.t
(** The merged-report rendering: everything except the shard-relative
    fields ([shards], [shard], [completed], [last_key], [complete]).
    [merge] of K shard checkpoints and [merge] of one unsharded
    checkpoint render byte-identically. *)
