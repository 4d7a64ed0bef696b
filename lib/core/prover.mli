(** Generic certificate search: the computational stand-in for the
    paper's all-powerful prover.

    The honest provers of the individual decoders construct certificates
    exactly as the completeness proofs do; this module instead {e
    searches} the certificate space, which is what we need to check
    statements of the form "no certificate assignment is accepted"
    (soundness) or "every accepted assignment has property P" (strong
    soundness).

    The search backtracks over the alphabet in {e ball-completion
    order}: nodes are assigned so that some node's radius-r ball is
    fully labeled as early as possible, and a branch is cut as soon as
    a covered node rejects. Covered verdicts come from per-node
    acceptance tables ({!Lcp_engine.Eval_cache}) — each (node,
    ball-labeling) pair is decoded once and looked up thereafter. When
    a cfg is present the search reports [eval_cache_hits] /
    [eval_cache_misses] into its metrics. Searches are sequential per
    instance, so both counters and tallies are deterministic and
    independent of [cfg.jobs].

    {!search_accepted} / {!find_accepted} additionally quotient the
    space by the graph's automorphism group whenever the decoder's
    verdicts are Aut-invariant ({!orbit_eligible}): one prefix trie
    over every automorphism's prefix-minimality test
    ({!Lcp_engine.Auto.prefix}), walked at each step, cuts a branch as
    soon as some automorphism provably sends every completion of the
    current partial labeling to a lexicographically smaller one. The search visits labelings in lex order, so its first
    accepted labeling is automatically the minimum of its (Aut-closed)
    accepted set — witnesses and verdicts are bit-identical to the full
    search; only the work tally shrinks, with the cut branches reported
    as [orbit_pruned_branches]. {!iter_accepted}
    enumerates {e all} accepted labelings and is never orbit-pruned.

    The reference paths the tables and the quotient are validated
    against — direct view extraction and the unquotiented search — are
    not reachable from here: they live in the test-and-bench library
    [Lcp_oracle.Oracle], which plugs them into {!search_with}. *)

open Lcp_local

val find_accepted :
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  Labeling.t option
(** Some labeling over the alphabet that every node accepts, if one
    exists. Backtracking with ball-coverage pruning: a partial labeling
    is cut as soon as some node whose entire radius-r ball is already
    labeled rejects. *)

val search_accepted :
  ?cfg:Lcp_obs.Run_cfg.t ->
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  Labeling.t option * int
(** {!find_accepted} plus a work tally: the number of partial labelings
    the backtracking search examined (prune invocations) before
    accepting or exhausting the space. The search is sequential per
    instance, so the tally is deterministic — it feeds the engine's
    [labelings_checked] counter — and identical to the one a search
    with direct decoding would report. Orbit pruning (see the module doc) shrinks the
    tally on symmetric graphs — never at or above the full search's
    tally, equal to it whenever the graph is rigid or the decoder
    ineligible — and never changes the witness. *)

val iter_accepted :
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  (Labeling.t -> unit) ->
  unit
(** All unanimously accepted labelings (the callback receives a fresh
    copy each time), in ball-completion search order. *)

val orbit_eligible : Decoder.t -> Instance.t -> bool
(** Whether the automorphism-orbit quotient is sound for this decoder
    on this instance: verdicts must be Aut-invariant (the decoder is
    anonymous {e and} port-invariant — then a verdict depends only on
    the labeled isomorphism type of the view) and the order must not
    exceed {!Lcp_engine.Canon.max_order}. Shared with {!Checker}'s
    exhaustive strong-soundness quotient. *)

val orbit_group : Decoder.t -> Instance.t -> Lcp_engine.Auto.t option
(** The automorphism group the production searches quotient by: [Some]
    exactly when the instance is {!orbit_eligible} for the decoder and
    its graph is not rigid. *)

(** {1 The search driver}

    {!search_accepted} is {!search_with} on the production settings:
    acceptance tables ({!tables}) and the orbit quotient
    ({!orbit_group}). Both are arguments here so the reference paths
    in the oracle library run the identical search loop, and so
    {!Checker}'s drivers can share them. *)

type source = {
  with_accepts :
    'a.
    Decoder.t ->
    alphabet:string list ->
    Instance.t ->
    ((Labeling.t -> int array -> int -> bool) -> 'a) ->
    'a;
}
(** A verdict source: [with_accepts dec ~alphabet inst k] runs [k]
    with [accepts], where [accepts lab ranks u] is node [u]'s verdict
    when the instance carries [lab] (only asked for nodes whose whole
    radius-r ball is labeled), [ranks.(w)] being the
    {!Lcp_local.Labeling.ranks} rank of [lab.(w)] in [alphabet] for
    each node [w] of that ball; it releases whatever backs [accepts]
    when [k] returns or raises. *)

type quotient = Decoder.t -> Instance.t -> Lcp_engine.Auto.t option
(** The automorphism group to quotient a search by, if any. *)

val tables : ?cfg:Lcp_obs.Run_cfg.t -> unit -> source
(** The production verdict source: an acceptance-table lease from
    {!Lcp_engine.Eval_cache.acquire}, keyed by everything a verdict
    depends on besides the labels (decoder name and radius, alphabet,
    graph, identifiers, ports), so a process that enabled cache sharing
    (the serve daemon does) reuses already-populated tables; the key
    is built only when sharing is on. Queries
    are keyed by the ranks alone. For an {!orbit_eligible} decoder the
    lease's misses go through the per-domain shape tables
    ([~shapes:true]), which every instance of the same view shape
    shares; the counters below are unchanged by them. On
    release, a cfg receives the lease's [eval_cache_hits] /
    [eval_cache_misses] delta and [eval_cache_shared_hits] when the
    lease was warm; all three counters are materialized (at 0) so cold
    and warm runs serialize the same key set. *)

val search_with :
  ?cfg:Lcp_obs.Run_cfg.t ->
  source:source ->
  quotient:quotient ->
  Decoder.t ->
  alphabet:string list ->
  Instance.t ->
  Labeling.t option * int
(** {!search_accepted} with an explicit verdict source and quotient. *)
