(** Sampled certification runs on large (10^5..10^6-node) instances.

    The exhaustive machinery ({!Checker}, {!Hiding}) certifies every
    labeling of every graph class up to n = 8; this module is the
    complementary regime: one big seeded random instance, an honest
    prover completeness pass over a node sample, seeded adversarial
    soundness trials, and a sampled hiding probe — all through the
    standard {!Lcp_local.View.extract} observation path and
    {!Lcp_obs.Run_cfg} observability.

    The yes-instance is certified once per {!run}: inside the
    [sample/completeness] span the model graph or its double cover is
    built, made an instance and labeled by one [suite.prover] call,
    and the hiding phase probes that same certified instance.

    Scale notes. The phases call [suite.promise], [suite.prover] and
    [suite.adversary_alphabet] on the full instance, so they are only
    as scalable as the decoder's own bundle: the k-coloring suites
    ({!D_trivial}, k = 2) run comfortably at 10^6 nodes (BFS prover,
    constant alphabet), while e.g. the spanning-tree suite materializes
    a per-id alphabet and is only meant for small sampled instances.

    Every tally is deterministic in [cfg.seed] and independent of
    [cfg.jobs]: work is fanned out over fixed-size chunks through
    {!Lcp_engine.Pool} and summed sequentially. *)

open Lcp_graph

type completeness = {
  instance : string;
      (** which yes-instance was certified: ["model graph"] when the
          sampled graph satisfies the promise itself, else
          ["bipartite double cover"] (see {!Builders.double_cover}) *)
  c_nodes : int;
  c_edges : int;
  evaluated : int;  (** sampled nodes whose verdict was computed *)
  accepted : int;  (** must equal [evaluated]; anything less is a bug *)
  c_wall_ns : int;
}

type soundness = {
  applicable : bool;
      (** [false] when the model graph satisfies the promise (it is a
          yes-instance, so adversarial rejection is not required) *)
  trials : int;
  rejected_trials : int;
  probes : int;  (** total node evaluations across all trials *)
  accepting_trials : int;
      (** trials in which {e every} node accepted an adversarial
          labeling — each one is a soundness-violation witness *)
  s_wall_ns : int;
}

type hiding = {
  pairs : int;
      (** node pairs actually compared: of the [?pairs] seeded draws,
          those with two distinct nodes (a draw of one node twice
          compares nothing). 0 on a 1-node instance. *)
  structural_collisions : int;
      (** certificate-blanked anonymized keys equal, honest colors
          differ: structure alone cannot determine the color *)
  structural_matches : int;
      (** pairs with equal certificate-blanked keys (any colors) *)
  certified_collisions : int;
      (** keys equal {e with} certificates visible, colors differ:
          evidence the certified views hide the coloring. 0 for
          decoders whose certificates are the colors. *)
  h_wall_ns : int;
}

type report = {
  decoder : string;
  model : string;
  seed : int;
  nodes : int;
  edges : int;
  build_wall_ns : int;  (** stamped by the caller; 0 until then *)
  completeness : completeness option;
      (** [None] when no yes-instance is derivable (promise fails on
          both the graph and its double cover) or the deadline expired *)
  soundness : soundness option;  (** [None] only on deadline expiry *)
  hiding : hiding option;
  violations : int;  (** completeness + soundness violations, 0 = pass *)
}

val run :
  ?eval_nodes:int ->
  ?trials:int ->
  ?pairs:int ->
  cfg:Lcp_obs.Run_cfg.t ->
  decoder:string ->
  model:string ->
  Decoder.suite ->
  Graph.t ->
  report
(** [run ~cfg ~decoder ~model suite g] samples the three phases on the
    seeded instance [g]. [eval_nodes] (default 50_000) bounds the
    completeness sample, [trials] (default 8) the adversarial
    labelings, [pairs] (default 2_000) the hiding probe's seeded node
    pair draws (the report's [hiding.pairs] counts those compared).
    Phases are skipped (reported as [None]) once [cfg]'s deadline has
    expired;
    within a phase the tallies are deadline-independent. Counters:
    [sample/completeness_evals], [sample/completeness_accepts],
    [sample/soundness_trials], [sample/soundness_rejected],
    [sample/soundness_probes], [sample/hiding_pairs],
    [sample/hiding_structural_collisions],
    [sample/hiding_certified_collisions], [sample/violations] — all
    identical for [jobs = 1] and [jobs = N]. *)

val with_build_wall_ns : report -> int -> report
(** Stamp the graph-construction wall time measured by the caller. *)

val report_to_json : report -> Lcp_obs.Json.t
(** Schema-versioned report, including derived [nodes_per_sec] /
    [edges_per_sec] / [probes_per_sec] rates and a [peak_rss_kb] note
    (VmHWM from /proc/self/status; null off Linux). *)
