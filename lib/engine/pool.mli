(** A work-stealing domain pool over OCaml 5 Domains.

    Tasks are indices [0 .. count-1] pulled from a shared atomic
    counter, so load-balancing is automatic and no task list is
    materialized. [jobs = 1] (and [count <= 1]) degrade to a plain
    sequential loop with zero Domain overhead — results are the same
    either way; parallelism only changes wall-clock time.

    Worker closures must not share mutable state (the task functions
    used by {!Sweep} accumulate into per-worker buffers and merge
    deterministically afterwards). The one sanctioned exception is an
    {!Lcp_obs.Metrics.t}: its [incr] is lock-protected and safe from
    any domain.

    When [?metrics] is given, each entry point tallies how many task
    indices each worker domain pulled under [pool/worker<w>/tasks].
    These are observations of the actual schedule — they vary between
    runs and across [jobs], unlike the engine's deterministic result
    counters. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val effective_jobs : jobs:int -> int -> int
(** The width for [count] light tasks (the sweep's enumeration levels
    and class checks): [1] below 64, where spawning domains costs more
    than the work, else [jobs]. Results never depend on the width. *)

val run :
  ?metrics:Lcp_obs.Metrics.t -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [run ~jobs count f] computes [f i] for every [i < count] on up to
    [jobs] domains and returns the results in index order (independent
    of [jobs]). Exceptions raised by [f] are re-raised after all
    domains are joined. *)

val map :
  ?metrics:Lcp_obs.Metrics.t -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f arr] = [run ~jobs (length arr) (fun i -> f arr.(i))]. *)

val search :
  ?metrics:Lcp_obs.Metrics.t ->
  jobs:int ->
  int ->
  (int -> 'a option) ->
  (int * 'a) option
(** [search ~jobs count f] returns [Some (i, x)] for the {e smallest}
    [i] with [f i = Some x], or [None]. Early-exit: once a match at
    index [i] is found, indices above [i] are cancelled (never pulled,
    or skipped on pull), while smaller indices still run to completion
    so the minimal match is returned {e deterministically} — the same
    result for every [jobs]. *)
