(** The exhaustive-verification engine.

    Every theorem-check in this reproduction reduces to the same sweep:
    enumerate an exhaustive space of small graphs, keep one
    representative per isomorphism class, and run a verifier over the
    survivors. The engine runs that sweep deduplicated by canonical
    form ({!Canon}), parallel ({!Pool}), and cached (iso-class
    listings are memoized across sweeps, so the many experiments that
    re-enumerate the same orders pay for enumeration once per
    process).

    Class listings come from the {!Orderly} canonical-augmentation
    generator, whose work scales with the class count: the
    minimal-edge-mask member of each class, ascending. The exhaustive
    mask scan it is validated against lives in [Lcp_oracle], outside
    the production path.

    Results are deterministic in [jobs]: class listings, summaries and
    counterexamples are bit-identical whether the sweep runs on one
    domain or many.

    Every entry point takes an {!Lcp_obs.Run_cfg.t} (defaulting to
    [Run_cfg.default]) that supplies the domain count and receives the
    sweep's instrumentation: spans [sweep], [sweep/enumerate] and
    [sweep/check]; deterministic counters [candidates_generated],
    [connected], [classes], [dedup_hits], [kept], [cache_hits],
    [cache_misses] (and, in [Exhaustive] mode, [checked] / [passed] /
    [violations]); and the [early_exit_round] gauge in
    [Search_counterexample] mode. [candidates_generated] (which
    replaces the pre-schema-2 [masks_scanned]) counts {!Orderly}'s
    extension candidates (see {!type:counters}). *)

open Lcp_graph

(** {1 Cached isomorphism classes} *)

val iso_classes : ?cfg:Lcp_obs.Run_cfg.t -> int -> Graph.t list
(** One representative (the one with the smallest edge mask) per
    isomorphism class of connected graphs on [n] nodes, in ascending
    mask order, memoized across calls per [n]. Reports cache traffic
    and the listing's enumeration tallies into [cfg] on every call,
    cached or not, so counters do not depend on cache temperature.
    @raise Listing.Mismatch when a fresh enumeration fails
    {!Listing.make}'s checks (the A001349 and A000088 accounting gates
    among them). *)

val listing : ?cfg:Lcp_obs.Run_cfg.t -> int -> Listing.t
(** The same cached listing as {!iso_classes}, as minimal masks with
    the tallies of its enumeration: what a coordinator writes for its
    shard workers ({!Listing.save}). Reports into [cfg] as
    {!iso_classes} does. *)

val install : Listing.t -> unit
(** Put a listing read from outside ({!Listing.load}) into the class
    cache under its [n], replacing any entry there: the
    sweeps that follow hit the cache and enumerate nothing. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the cross-sweep iso-class cache, process-wide
    (the per-run view lives in the cfg's [cache_hits] / [cache_misses]
    counters). *)

val clear_cache : unit -> unit
(** Drop the memoized class listings (resets {!cache_stats}). *)

(** {1 Sharding}

    A sweep can be cut into [K] independent slices that different
    processes (or machines) work through separately and whose
    checkpoints {!Checkpoint.merge} back into the unsharded totals.
    The cut is a pure function of each class's {e key} — nothing else:
    not [jobs], not the keep filter — so any two runs agree on which
    shard owns which class. *)

val shard_of_class : shards:int -> Graph.t -> int
(** Which of the [shards] slices owns a class: a splitmix64-style bit
    mix of the class's key, reduced mod [shards] — minimal edge masks
    are heavily non-uniform, the mix spreads them evenly. The
    shard-key contract: a class is keyed by its representative's edge
    mask ({!Chunk.wide_mask_of_graph}) — stable across processes and
    orders up to {!Canon.max_order}, and ascending along the listing
    (representatives are minimal-mask members, listed ascending).
    @raise Invalid_argument when [shards < 1]. *)

(** {1 Sweeps} *)

type mode =
  | Exhaustive
      (** Check every class; count passed and violations. *)
  | Search_counterexample
      (** Early-exit as soon as any worker finds a violation; work at
          higher mask indices is cancelled. The counterexample returned
          is still the minimal-mask one, so verdicts and witnesses are
          identical to an [Exhaustive] run. *)

type counters = {
  candidates : int;
      (** enumeration candidates examined: {!Orderly}'s (parent,
          neighborhood-bitmask) extension pairs *)
  connected : int;  (** connected classes at the final level *)
  classes : int;  (** isomorphism classes listed *)
  dedup_hits : int;
      (** candidates folded into an already-seen canonical form *)
  kept : int;  (** classes surviving the [keep] filter *)
  checked : int;  (** classes the verifier actually ran on *)
  passed : int;
  violations : int;
}
(** Per-worker tallies merged into one record. In
    [Search_counterexample] mode [checked]/[passed] may vary with
    [jobs] (cancelled work is not checked); everything else is
    deterministic. *)

type 'c summary = {
  n : int;
  jobs : int;
  mode : mode;
  counters : counters;
  counterexample : (Graph.t * 'c) option;
      (** the violating class with the smallest edge mask *)
  wall_s : float;
}

exception Checkpoint_mismatch of string
(** A checkpoint that cannot be resumed by this sweep: unreadable, or
    disagreeing on its header, shard or class stream. *)

val run :
  ?cfg:Lcp_obs.Run_cfg.t ->
  ?mode:mode ->
  ?shard:int * int ->
  ?checkpoint:Checkpoint.policy ->
  ?on_chunk:(completed:int -> total:int -> unit) ->
  ?max_chunks:int ->
  ?keep:(Graph.t -> bool) ->
  n:int ->
  check:(Graph.t -> 'c option) ->
  unit ->
  'c summary
(** Sweep the connected [n]-node graphs: enumerate + dedup (cached, via
    {!iso_classes}), filter the representatives
    through [keep] (which must be isomorphism-invariant — it runs on
    one representative per class), and run [check] on each kept class
    in parallel on [cfg.jobs] domains ([Run_cfg.sequential cfg] for a
    strictly sequential sweep). [check g = Some c] reports a violation
    [c]; [None] is an accept.

    [shard = (i, k)] restricts the sweep to slice [i] of [k] (see
    {!shard_of_class}); the filter applies after [keep], and [kept] /
    [checked] / [passed] / [violations] count shard-locally.
    Enumeration tallies are shard-independent (the filter runs on the
    listing, never during enumeration).

    [checkpoint] (Exhaustive mode only — {!Search_counterexample}
    raises [Invalid_argument]) makes the sweep durable: targets run in
    chunks of [max 32 (4 * jobs)] classes with the counter state saved
    atomically to [policy.path] after each chunk. With
    [policy.resume] and an existing file, the sweep validates the
    checkpoint's header and class stream against this run (an
    unreadable file or any disagreement raises {!Checkpoint_mismatch})
    and continues from the first
    unfinished class; the checkpoint's [labelings_checked] share is
    credited into [cfg]'s metrics so the final counters describe the
    whole logical sweep. A violating sweep rebuilds its
    minimal-key counterexample by re-running [check] once after the
    final checkpoint write — that rerun's work lands in the metrics
    but never in the file, so on-disk counters are bit-identical to an
    uninterrupted run's.

    [on_chunk] fires after every checkpoint write (checkpointed runs
    only) with the shard-local progress — the hook a supervisor's
    progress stream hangs off. [max_chunks] (checkpointed runs only,
    [Invalid_argument] otherwise) stops the sweep after that many
    chunk writes, leaving a valid {e incomplete} checkpoint on disk —
    deterministic preemption, used by tests and CI to simulate a
    worker dying mid-sweep without racing a signal against the chunk
    loop. A preempted summary carries the completed prefix's counters
    and no counterexample. *)

