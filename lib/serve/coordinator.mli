(** The sweep coordinator: one job in, K supervised shard workers out,
    one merged report back — the layer that turns PR 9's manual
    "launch K shells and babysit them" recipe into a fault-tolerant
    orchestrator, and the parallelism story past a single domain pool
    on the road to n = 10.

    The coordinator partitions a sweep with the engine's deterministic
    class-key partition ({!Lcp_engine.Sweep.shard_of_key}; nothing to
    compute up front — each worker filters its own slice), runs one
    worker per shard up to a [workers] cap, and supervises them
    through the only state that matters: the shard checkpoint files
    the workers atomically rewrite after every chunk
    ({!Lcp_engine.Checkpoint}).

    {b Supervision state machine.} Each shard is [Pending] (waiting
    for a worker slot and its backoff deadline), [Running], or
    [Finished]. A running worker is polled for exit. On any
    termination the checkpoint file is the judgement: {e complete}
    checkpoint = shard done (even if the worker was killed after its
    final chunk, and even if it exited 1 because the shard saw
    violations); anything else = crash, and the
    shard goes back to [Pending] with capped exponential backoff
    ({!backoff_s}) — the restarted worker [--resume]s from the last
    completed chunk, so work is lost only back to the previous
    checkpoint write. A worker that exits 2 (usage error) aborts the
    whole run: retrying a malformed invocation can only fail again.
    After [max_restarts] failed restarts of one shard the run aborts.

    {b Liveness / heartbeat contract.} Every checkpoint write stamps
    [saved_at]. A worker that has been running longer than [stall_s]
    {e and} whose checkpoint heartbeat is older than [stall_s] is
    declared wedged, SIGKILLed, and restarted through the normal crash
    path. Workers therefore need no extra liveness plumbing — durable
    progress {e is} the heartbeat.

    {b Workers.} The one executor, [Subprocess], forks [bin sweep
    DECODER --shards K --shard I --checkpoint ... --resume] children
    (default: the current executable). A daemon that coordinates a
    sweep forks the same children on its own host.

    {b Determinism.} The merged checkpoint — and [report], its
    {!Lcp_engine.Checkpoint.report_json} rendering — is byte-identical
    to the unsharded run's, regardless of worker deaths or restarts:
    that is the CI [cmp] gate, inherited from the sharding layer.

    Observability: counters [coord/shards_launched] /
    [coord/restarts] (materialized at 0), gauges
    [coord/classes_done], [coord/shards_done],
    [coord/shard<i>/completed], [coord/shard<i>/attempts], span
    [coord], and progress lines for every supervision event, all into
    the caller's cfg. *)

type executor =
  | Subprocess of { bin : string }
      (** fork shard workers as [bin sweep ...] children *)

type config = {
  decoder : string;
  n : int;
  shards : int;  (** partition width K *)
  workers : int;  (** max simultaneously running shard workers *)
  jobs : int;  (** domain-pool width inside each worker *)
  executor : executor;
  dir : string;
      (** checkpoint directory (created if missing); shard [i] lives
          at [shard-<i>.json]. Reusing a dir resumes its finished and
          partial shards; a dir from a {e different} sweep makes the
          workers exit 2 and the run abort. *)
  poll_s : float;  (** supervision poll interval *)
  stall_s : float;  (** heartbeat staleness before a worker is wedged *)
  backoff_base_s : float;
  backoff_max_s : float;
  max_restarts : int;  (** per-shard restart budget *)
  inject_kill : int option;
      (** test/CI fault injection: this shard's first worker runs with
          [--max-chunks 1] and is SIGKILLed if a poll finds it running
          with its checkpoint on disk. Either way it leaves an
          incomplete checkpoint and the shard is restarted exactly
          once — provided the shard spans more than one checkpoint
          chunk (more than 32 classes at [jobs <= 8]); a one-chunk
          shard can finish before any poll and is not restarted. *)
  on_spawn : shard:int -> attempt:int -> pid:int -> unit;
      (** observation hook, called after every worker launch *)
}

val default_config :
  decoder:string -> n:int -> shards:int -> dir:string -> config
(** Subprocess executor on [Sys.executable_name], [workers = shards],
    [jobs = 1], 50ms poll, 120s stall, backoff 0.25s doubling to 8s,
    5 restarts, no injection. *)

val backoff_s : config -> attempt:int -> float
(** Delay before launching [attempt] (1-based): 0 for the first
    attempt, then [backoff_base_s * 2^(attempt-2)] capped at
    [backoff_max_s]. *)

val shard_path : dir:string -> int -> string
(** [dir/shard-<i>.json], the checkpoint file of shard [i]. *)

type shard_report = {
  shard : int;
  attempts : int;  (** workers launched for this shard (>= 1) *)
  kept : int;  (** shard-local classes *)
  wall_s : float;  (** first launch to completion, restarts included *)
}

type outcome = {
  merged : Lcp_engine.Checkpoint.t;
  report : Lcp_obs.Json.t;
      (** {!Lcp_engine.Checkpoint.report_json} of [merged]: the bytes
          that must equal the unsharded run's *)
  launched : int;
  restarts : int;
  shard_reports : shard_report list;
  wall_s : float;
}

val outcome_json : outcome -> Lcp_obs.Json.t

val run : ?cfg:Lcp_obs.Run_cfg.t -> config -> (outcome, string) result
(** Run the coordinated sweep to completion. [Error] covers shard
    abortion (usage-error worker, restart budget exhausted) and merge
    failures; partial shard checkpoints stay in [dir] so a rerun with
    the same config resumes instead of restarting.
    @raise Invalid_argument on a malformed config (non-positive
    shards/workers/jobs). *)
