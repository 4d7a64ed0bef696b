(** The per-figure / per-theorem experiment drivers (DESIGN.md Sec. 3).

    Each experiment reproduces one artifact of the paper on concrete
    instances and returns a {!Report.t} whose rows compare the measured
    outcome against the paper's claim. [run_all] executes the full
    battery (E1–E20).

    The battery runs under one {!Lcp_obs.Run_cfg.t} (defaulting to
    [Lcp_obs.Run_cfg.default]): its [jobs] field drives the {!Lcp_engine.Pool}
    width of the engine sweeps and exhaustive rows, [heavy] selects the
    larger search spaces, [seed] feeds the experiment's RNG, and its
    metrics registry collects counters and spans. Results are
    deterministic: randomized components restart from [Lcp_obs.Run_cfg.rng cfg]
    per experiment, and every verdict is independent of [jobs]. *)

val run_all : ?cfg:Lcp_obs.Run_cfg.t -> unit -> Report.t list
(** The full battery in order (E1–E20). Each experiment runs inside an
    [experiments/EN] span on [cfg], bumps the [experiments_run]
    counter, and emits its {!Report.summary_line} as sink progress. If
    [cfg] carries a deadline, experiments that have not started when it
    expires are skipped (with a progress note) rather than aborted
    mid-flight. *)
