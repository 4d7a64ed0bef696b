(** The sweep coordinator: one job in, K supervised shard workers out,
    one merged report back.

    Shard [I] is a forked [bin sweep DECODER --shards K --shard I
    --checkpoint DIR/shard-I.json --resume] worker (the engine's
    class-key partition, {!Lcp_engine.Sweep.shard_of_key}, decides its
    slice), at most [workers] at a time; a daemon coordinating a sweep
    forks the same workers on its host. {!run} is the effect loop of
    the pure policy {!Supervise}: every 50 ms it reaps exited workers,
    reads each unfinished shard's checkpoint once, feeds what it saw
    to {!Supervise.step} on its own clock (which times the heartbeats)
    and performs the spawns, kills, abort or merge that [step] returns.
    A restarted worker resumes from its last completed chunk.

    The merged report is byte-identical to the unsharded run's,
    whatever happened to the workers: that is CI's [cmp] gate.

    Observability: counters [coord/shards_launched] and
    [coord/restarts] (materialized at 0), gauges [coord/classes_done],
    [coord/shards_done], [coord/shard<i>/completed] and
    [coord/shard<i>/attempts], span [coord], and progress lines, all
    into the caller's cfg. *)

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
  stall_s : float;  (** heartbeat staleness before a worker is wedged *)
  max_restarts : int;  (** per-shard restart budget *)
  inject_kill : int option;
      (** fault injection for tests and CI: this shard's first worker
          runs with [--max-chunks 1] and is SIGKILLed if a poll finds it
          running with a checkpoint, so a shard of more than one chunk
          (32 classes at [jobs <= 8]) is restarted exactly once. *)
  on_spawn : shard:int -> attempt:int -> pid:int -> unit;
      (** observation hook, called after every worker launch *)
}

val default_config :
  decoder:string -> n:int -> shards:int -> dir:string -> config
(** Subprocess executor on [Sys.executable_name], [workers = shards],
    [jobs = 1], 120s stall, 5 restarts, no injection. *)

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
