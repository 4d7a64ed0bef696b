(** Machine checks of the LCP correctness properties (paper Secs. 2.2,
    2.3, 2.5) on finite instance spaces.

    The paper's properties are universally quantified; on small orders
    we check them literally (exhaustive modes) and beyond that we attack
    them with randomized and mutation-based adversaries. Every failure
    carries a concrete counterexample. *)

open Lcp_local

type failure = {
  instance : Instance.t;  (** with the offending labeling installed *)
  detail : string;
}

type verdict = Pass of { checked : int } | Fail of failure

val completeness : Decoder.suite -> Instance.t list -> verdict
(** For every instance whose graph is in the promise class (and
    2-colorable), the honest prover must return certificates accepted by
    every node; instances outside the class are skipped. *)

val soundness_exhaustive :
  ?cfg:Lcp_obs.Run_cfg.t -> Decoder.suite -> Instance.t list -> verdict
(** For every instance whose graph is {e not} 2-colorable, no labeling
    over the adversary alphabet may be unanimously accepted. With a
    [cfg] whose [jobs > 1] the instances are checked on the
    {!Lcp_engine.Pool} domain pool; the verdict and its witness are
    independent of [jobs]. No [cfg] means sequential and
    uninstrumented; with one, partial labelings examined feed its
    [labelings_checked] counter. *)

val strong_soundness_exhaustive :
  ?cfg:Lcp_obs.Run_cfg.t -> Decoder.suite -> k:int -> Instance.t list -> verdict
(** Strong (promise) soundness, literally: over {e all} labelings of
    {e each} given instance, the accepting-node-induced subgraph must be
    k-colorable. Cost is |alphabet|^n per instance (with acceptance
    pruning not applicable — every labeling must be inspected), so keep
    instances small. Verdicts come from the acceptance tables, and the
    space is quotiented by Aut(G) whenever {!Prover.orbit_group} yields
    a group: each orbit minimum is weighted by its orbit size, so a
    passing run still counts exactly |alphabet|^n per instance. [cfg]
    parallelizes over instances as in {!soundness_exhaustive}; complete
    labelings inspected feed its [labelings_checked] counter. *)

val strong_soundness_with :
  ?cfg:Lcp_obs.Run_cfg.t ->
  source:Prover.source ->
  quotient:Prover.quotient ->
  Decoder.suite ->
  k:int ->
  Instance.t list ->
  verdict
(** The driver behind {!strong_soundness_exhaustive}, with the verdict
    source and the quotient as arguments (see {!Prover.search_with}). *)

val soundness_sweep :
  ?cfg:Lcp_obs.Run_cfg.t ->
  ?shard:int * int ->
  ?checkpoint:Lcp_engine.Checkpoint.policy ->
  ?on_chunk:(completed:int -> total:int -> unit) ->
  ?max_chunks:int ->
  ?early_exit:bool ->
  Decoder.suite ->
  n:int ->
  Instance.t Lcp_engine.Sweep.summary
(** Soundness over the {e whole} [n]-node space: every connected
    non-bipartite graph on exactly [n] nodes, one representative per
    isomorphism class (enumerated, deduplicated and cached by
    {!Lcp_engine.Sweep}), must admit no unanimously accepted labeling.
    A counterexample carries the accepted instance. [early_exit]
    cancels remaining classes once a violation is found (the returned
    counterexample is still the minimal one). [shard]
    and [checkpoint] pass through to {!Lcp_engine.Sweep.run}: slice
    the class stream K ways, and/or persist resumable progress
    (Exhaustive mode only), as do the checkpointed-run hooks
    [on_chunk] (per-chunk progress callback) and [max_chunks]
    (deterministic preemption). [cfg] supplies the domain count and
    collects the sweep's spans and counters, including
    [labelings_checked] from the per-class certificate searches. *)

val soundness_sweep_with :
  ?cfg:Lcp_obs.Run_cfg.t ->
  ?shard:int * int ->
  ?checkpoint:Lcp_engine.Checkpoint.policy ->
  ?on_chunk:(completed:int -> total:int -> unit) ->
  ?max_chunks:int ->
  ?early_exit:bool ->
  source:Prover.source ->
  quotient:Prover.quotient ->
  Decoder.suite ->
  n:int ->
  Instance.t Lcp_engine.Sweep.summary
(** The driver behind {!soundness_sweep}: each class's certificate
    search runs {!Prover.search_with} on the given verdict source and
    quotient. *)

val verdict_of_sweep : Instance.t Lcp_engine.Sweep.summary -> verdict
(** Collapse a {!soundness_sweep} summary into a {!verdict}. *)

val strong_soundness_random :
  Decoder.suite ->
  k:int ->
  trials:int ->
  Random.State.t ->
  Instance.t list ->
  verdict
(** Randomized adversary: uniform labelings plus mutations of honest
    certificates (when the prover succeeds), which probe the
    near-acceptance region where violations would hide. *)

val anonymity : Decoder.t -> trials:int -> Random.State.t -> Instance.t list -> verdict
(** Empirical anonymity of the decoder on the given instances. *)

val order_invariance :
  Decoder.t -> trials:int -> Random.State.t -> Instance.t list -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
val is_pass : verdict -> bool
