(** The per-figure / per-theorem experiment drivers (DESIGN.md Sec. 3).

    Each function reproduces one artifact of the paper on concrete
    instances and returns a {!Report.t} whose rows compare the measured
    outcome against the paper's claim. [run_all] executes the full
    battery (E1–E20).

    Every experiment takes one {!Lcp_obs.Run_cfg.t} (defaulting to
    [Lcp_obs.Run_cfg.default]): its [jobs] field drives the {!Lcp_engine.Pool}
    width of the engine sweeps and exhaustive rows, [heavy] selects the
    larger search spaces, [seed] feeds the experiment's RNG, and its
    metrics registry collects counters and spans. Results are
    deterministic: randomized components restart from [Lcp_obs.Run_cfg.rng cfg]
    per experiment, and every verdict is independent of [jobs]. *)

val e1_forgetful : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Fig. 1 + Lemma 2.1: r-forgetful survey over graph families. *)

val e2_views : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Fig. 2: view extraction and visibility of fringe edges;
    yes-instance compatibility. *)

val e3_degree_one : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Lemma 4.1 + Figs. 3–4: the degree-one decoder battery. The
    soundness row sweeps {e every} connected non-bipartite
    isomorphism class on 6 nodes (5 when [cfg.heavy] is off) through
    {!Lcp_engine.Sweep}. *)

val e4_even_cycle : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Lemma 4.2 + Figs. 5–6: the even-cycle decoder battery, including
    the hidden-everywhere property. *)

val e5_union : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Theorem 1.1: the assembled anonymous union decoder. *)

val e6_shatter : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Theorem 1.3: the shatter-point decoder battery. *)

val e7_watermelon : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Theorem 1.4: the watermelon decoder battery. [cfg.jobs]
    parallelizes the strong-soundness row and the 8-path
    certificate-family expansion over (identifier, port) choices. *)

val e8_extraction : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Lemma 3.2: colorable neighborhood graphs yield working extraction
    decoders for the two revealing baselines; the paper's decoders
    yield odd cycles instead. *)

val e9_realizability : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Sec. 5.1 + Lemma 5.1: compatibility, realizable odd view cycles,
    and the [G_bad] gluing violating strong soundness for a
    non-strongly-sound decoder. *)

val e10_lower_bound : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Lemmas 5.4–5.5 / Theorem 1.5 machinery on r-forgetful instances:
    edge expansions, walk repairs, and the contrapositive sanity check
    on the paper's decoders. *)

val e11_ramsey : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Lemma 6.2: decoder types, monochromatic identifier sets and the
    induced order-invariant decoder. *)

val e12_cert_sizes : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Certificate-size series for all decoders against their stated
    asymptotics. *)

val e13_sync : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Sec. 2.2: the message-passing simulator agrees with View.extract. *)

val e14_slocal : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Sec. 1 motivation: the Pi problem (3-color the certified region) in
    an SLOCAL simulator — revealing certificates admit an
    extraction-based SLOCAL(1) solution, hiding ones strand it. *)

val e15_quantified : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Sec. 2.4 future work: quantified hiding levels via exhaustive
    search over all radius-1 extractors. *)

val e16_hidden_leaf : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Sec. 1.3 general k: the hidden-leaf decoder battery at k = 2, 3. *)

val e17_decoder_space : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Exhaustive search over all 64 one-bit port-oblivious anonymous
    decoders: none is simultaneously complete, strong and hiding on
    even cycles — the Lemma 4.2 construction's use of ports is
    essential. *)

val e18_resilient : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Sec. 1.2 related work: the resilient-labeling wrapper survives
    certificate erasures and detects tampered backups. *)

val e19_extractor_radius : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** Hiding pitted against extractors with a {e larger} radius than the
    decoder: the even-cycle construction keeps hiding until the
    extractor's ball nearly covers the ring. *)

val e20_edge_bit : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t
(** The round/size trade-off: one extra verification round admits a
    strong and hiding LCP on even cycles with single-bit certificates,
    which E17 proves impossible in one round. *)

val run_all : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t list
(** The full battery in order (E1–E20). Each experiment runs inside an
    [experiments/EN] span on [cfg], bumps the [experiments_run]
    counter, and emits its {!Report.summary_line} as sink progress. If
    [cfg] carries a deadline, experiments that have not started when it
    expires are skipped (with a progress note) rather than aborted
    mid-flight. *)
