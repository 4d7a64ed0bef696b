(** The reference implementations behind the certificate search's fast
    paths, kept out of the production path.

    {!Lcp.Prover} and {!Lcp.Checker} always decode through per-node
    acceptance tables and quotient by the automorphism group whenever
    that is sound. Each fast path is only trusted because it agrees
    with a slower, obviously correct one: direct view extraction for
    the tables, the unquotiented search for the orbit quotient. Those
    references live here, plugged into the production drivers
    ({!Lcp.Prover.search_with}, {!Lcp.Checker.strong_soundness_with},
    {!Lcp.Checker.soundness_sweep_with}) so both sides of every A/B
    comparison run the identical search loop. Tests and the bench's
    A/B series link this library; the [lcp] binary does not. *)

open Lcp_local
open Lcp

type verdicts =
  | Tables  (** acceptance tables, the production source *)
  | Direct
      (** decode node [u]'s radius-r view of the relabeled instance on
          every query: the reference. Reports no [eval_cache_*]
          counters. *)

val search_accepted :
  ?cfg:Lcp_obs.Run_cfg.t ->
  verdicts:verdicts ->
  quotient:bool ->
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  Labeling.t option * int
(** {!Lcp.Prover.search_accepted} on the chosen verdict source, with
    the production orbit quotient ([quotient = true]) or the full
    search ([false]). [Tables] with [true] is the production search. *)

val strong_soundness_exhaustive :
  ?cfg:Lcp_obs.Run_cfg.t ->
  verdicts:verdicts ->
  quotient:bool ->
  Decoder.suite ->
  k:int ->
  Instance.t list ->
  Checker.verdict
(** {!Lcp.Checker.strong_soundness_exhaustive} on the chosen paths. *)

val soundness_sweep :
  ?cfg:Lcp_obs.Run_cfg.t ->
  verdicts:verdicts ->
  quotient:bool ->
  Decoder.suite ->
  n:int ->
  Instance.t Lcp_engine.Sweep.summary
(** {!Lcp.Checker.soundness_sweep} (exhaustive) on the chosen
    paths. *)

val count_accepted : Decoder.t -> alphabet:string list -> Instance.t -> int
(** Brute force: the number of labelings in the full |alphabet|^n
    space that every node accepts, each decoded directly. The reference
    for {!Lcp.Prover.count_accepted}, which must never be quotiented. *)
