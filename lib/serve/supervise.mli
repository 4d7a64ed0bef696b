(** The shard supervision policy of {!Coordinator} as one pure state
    machine: {!step} folds what the poll loop saw into the next state
    and the actions to perform. It reads no clock and touches no
    process or file, so every decision can be driven on virtual time.

    A shard is [Pending] (waiting for a slot and its backoff deadline),
    [Running] or [Done]. An exited worker is judged by its checkpoint
    first: complete means done, whatever the exit status. Otherwise
    exit 2 (a usage error, which a retry cannot fix) aborts the run,
    and anything else is a crash: the shard is pending again after
    0.25 s doubling per attempt up to 8 s, and its [max_restarts + 1]th
    crash aborts the run.

    A running shard beats at its spawn and at each tick where its
    checkpoint's [(completed, saved_at)] differs from the last read,
    by the loop's clock; one that has not beaten for more than
    [stall_s] is killed into the crash path. So neither the worker's
    clock nor the whole seconds of [saved_at] matter. *)

module Checkpoint := Lcp_engine.Checkpoint

type status = Exit of int | Signal of int  (** how a worker ended *)

type event =
  | Tick of float  (** the loop's clock, first in every poll *)
  | Exited of { shard : int; status : status; ck : Checkpoint.t option }
      (** a running shard's worker was reaped; [ck] is its checkpoint,
          read after the reap *)
  | Observed of { shard : int; ck : Checkpoint.t option }
      (** one read of every other unfinished shard's checkpoint per
          tick; [None] when nothing readable is on disk *)

type action =
  | Spawn of { shard : int; attempt : int; preempt : bool }
      (** launch attempt [attempt] (from 1); [preempt]: stop after one
          chunk, the injected fault *)
  | Kill of { shard : int; reason : string }
      (** SIGKILL the shard's worker; its exit arrives as [Exited] *)
  | Abort of string  (** after a [Kill] of every running shard *)
  | Merge of Checkpoint.t list  (** every shard's complete checkpoint *)

type phase =
  | Pending of { not_before : float }
  | Running of { beat : float }  (** clock of the last heartbeat *)
  | Done of { at : float }

type shard = {
  phase : phase;
  attempts : int;  (** workers launched so far *)
  first_start : float;  (** clock of the first launch *)
  seen : Checkpoint.t option;  (** the last checkpoint read *)
}

type t  (** the policy's state; nothing mutates it, {!shards} included *)

val shards : t -> shard array
val restarts : t -> int  (** crashes answered with a retry so far *)

val init :
  shards:int ->
  workers:int ->
  stall_s:float ->
  max_restarts:int ->
  inject_kill:int option ->
  t
(** Every shard pending and due at once. *)

val step : t -> event -> t * action list
(** Apply one event, then launch due pending shards into free slots in
    shard order, or merge once all are done. After a [Merge] or an
    [Abort] it returns no more actions. *)

val is_running : shard -> bool
