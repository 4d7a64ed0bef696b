(** The sweep coordinator: one job in, K supervised shard workers out,
    one merged report back.

    The class listing is enumerated once per run: before the first
    spawn, {!run} takes it from {!Lcp_engine.Sweep.listing} on
    [workers * jobs] domains (at most one per core) and writes it to
    [DIR/classes.json] ({!Lcp_engine.Listing.save}). Shard [I] is then
    a forked
    [bin sweep DECODER --shards K --shard I --checkpoint
    DIR/shard-I.json --resume --classes DIR/classes.json] worker (the
    engine's class-key partition, {!Lcp_engine.Sweep.shard_of_class},
    decides its slice), at most [workers] at a time; a daemon
    coordinating a sweep forks the same workers on its host.

    {!run} is the effect loop of the pure policy {!Supervise}. Each
    worker's stdout is a pipe the loop drains; it waits on those pipes
    for at most 50 ms, so a worker's exit (EOF on its pipe) wakes it at
    once, and otherwise a tick every 50 ms times heartbeats and stalls.
    On each wake it reaps exited workers, reads each unfinished shard's
    checkpoint once, feeds what it saw to {!Supervise.step} on its own
    clock and performs the spawns, kills, abort or merge that [step]
    returns. A restarted worker resumes from its last completed chunk
    and reads the same listing.

    The merged report is byte-identical to the unsharded run's,
    whatever happened to the workers: that is CI's [cmp] gate.

    Observability: counters [coord/shards_launched] and
    [coord/restarts] (materialized at 0), gauges [coord/classes_done],
    [coord/shards_done], [coord/shard<i>/completed] and
    [coord/shard<i>/attempts], spans [coord] and [coord/listing], and
    progress lines, all into the caller's cfg. The enumeration reports
    into a private cfg, so the caller's counters are the
    supervision's alone. *)

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
          at [shard-<i>.json], the class listing at [classes.json]
          (rewritten by every run). Reusing a dir resumes its finished
          and partial shards; a dir from a {e different} sweep makes
          the workers exit 2 and the run abort. *)
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
    shards/workers/jobs).
    @raise Lcp_engine.Listing.Mismatch when the enumeration fails the
    listing's checks (the A001349 accounting gate). *)
