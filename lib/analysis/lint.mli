(** The sanitizer driver behind [lcp lint]: sweep decoder registry
    entries through every analysis pass and produce one schema-versioned
    report.

    Per entry, in order: build the {!Corpus} (seeded from the
    {!Lcp.Run_cfg}), trace every evaluation with {!Probe} (radius and
    certificate-taint facts), raise trace findings against the entry's
    declared {!Lcp.Decoder.contract}, then run the behavioral passes —
    {!Invariance} for the symmetries the contract claims, and
    {!Determinism} (repeat + [jobs=1] vs [jobs=N] pool comparison).

    Every number in the report is a function of [(seed, max_n,
    samples)] alone: the corpus order is fixed, RNG consumption is
    jobs-independent, and entries are processed in sorted key order —
    so two runs with different [jobs] render byte-identical JSON.
    Progress, spans and counters ([lint/evals], [lint/findings],
    [lint/violations]) flow through the cfg's {!Lcp_obs.Sink}. *)

type decoder_report = {
  key : string;
  contract : Lcp.Decoder.contract;
  view_radius : int;  (** the extraction radius of the implementation *)
  evals : int;  (** traced decoder evaluations *)
  observed_radius : int;
      (** deepest data access seen in any evaluation; the slack against
          [contract.declared_radius] is the locality-tightness metric *)
  id_reads : int;
  port_reads : int;
  cert_bits_declared : int;
      (** the suite's information-theoretic certificate bound (max over
          the corpus) *)
  cert_bits_read : int;
      (** most certificate bits (8/byte, readable encoding) any single
          evaluation consumed — the hiding-relevant taint metric *)
  findings : Finding.t list;
}

type report = {
  max_n : int;
  samples : int;
  decoders : decoder_report list;  (** sorted by key *)
}

val run :
  ?cfg:Lcp_obs.Run_cfg.t ->
  ?max_n:int ->
  ?samples:int ->
  Lcp.Registry.entry list ->
  report
(** Defaults: {!Lcp_obs.Run_cfg.default}, {!Corpus.default_max_n},
    {!Corpus.default_samples}. *)

val findings : report -> Finding.t list
val violations : report -> Finding.t list
(** The findings that must fail a CI gate (severity [Error]). *)

val report_to_json : report -> Lcp_obs.Json.t
