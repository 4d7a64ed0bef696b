(** Instrumented synchronization: labeled wrappers over [Mutex],
    [Condition], [Atomic] and thread/domain spawning that, when {e
    armed}, log a per-thread event trace for the [Lcp_race] analyses
    (happens-before data-race detection, lock-order cycles, seeded
    schedule perturbation).

    Disarmed — the default, and the only mode one-shot CLI runs ever
    see — every wrapper is the underlying primitive plus one relaxed
    [Atomic.get] branch; no allocation, no locking, no trace. Armed
    (via {!arm}), each synchronization operation appends one event to
    a process-global trace under an internal {e uninstrumented} mutex,
    and optionally pauses at operation entry according to a seeded
    deterministic schedule-perturbation policy (see {!perturb}).

    {b Event ordering contract.} The trace's [seq] order is consistent
    with the real synchronization order the analyses rely on:
    [Acquire] is logged {e after} the lock is held, [Release] {e
    before} it is dropped, atomic writes {e before} and atomic reads
    {e after} the underlying operation, [Spawn] before the child can
    start and [Join] after it has finished — so a release and the
    acquire it happens-before always appear in that order in the
    trace.

    {b Lock discipline.} The internal trace mutex is leaf-level and
    private: recording never calls back into instrumented code, so
    arming cannot deadlock or add edges to the analyzed lock graph. *)

type op =
  | Acquire  (** [obj] = mutex *)
  | Release  (** [obj] = mutex *)
  | Wait_begin  (** [obj] = condition, [arg] = mutex; implies Release *)
  | Wait_end  (** [obj] = condition, [arg] = mutex; implies Acquire *)
  | Signal  (** [obj] = condition *)
  | Broadcast  (** [obj] = condition *)
  | A_read  (** [obj] = atomic *)
  | A_write  (** [obj] = atomic; RMW ops log a single [A_write] *)
  | V_read  (** [obj] = tracked plain var *)
  | V_write  (** [obj] = tracked plain var *)
  | Spawn  (** [obj] = spawn token, in the parent *)
  | Begin  (** [obj] = spawn token, first event of the child *)
  | End  (** [obj] = spawn token, last event of the child *)
  | Join  (** [obj] = spawn token, in the parent after join *)

type event = {
  seq : int;  (** position in the global trace *)
  dom : int;  (** [Domain.self] of the logging thread *)
  thr : int;  (** [Thread.id (Thread.self ())] of the logging thread *)
  op : op;
  obj : int;  (** unique id of the mutex/condition/atomic/var/token *)
  arg : int;  (** [Wait_*]: the mutex id; otherwise [-1] *)
  label : string;  (** the object's creation label (token: spawn label) *)
}

(** {1 Mutexes and conditions} *)

type mutex

val mutex : string -> mutex
(** A labeled mutex. The label names the lock {e class} in findings and
    the lock-order graph; every instance still has a unique id. *)

val with_lock : mutex -> (unit -> 'a) -> 'a
(** Exception-safe lock/unlock bracket ([Fun.protect]); the one helper
    every locked section in the tree is expected to use. *)

type cond

val condition : string -> cond
val wait : cond -> mutex -> unit
val signal : cond -> unit
val broadcast : cond -> unit

(** {1 Instrumented atomics}

    Traced [Atomic] wrappers. The race analyses treat every [A.t]
    access as a synchronization operation (atomics cannot data-race by
    definition, and release/acquire edges flow through them), so
    migrating a counter from a bare [ref] to an [A.t] both fixes the
    race and teaches the detector about the new edge. *)

module A : sig
  type 'a t

  val make : string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
end

(** {1 Tracked plain variables}

    A [Var.t] is a plain mutable cell whose reads and writes are
    logged {e without} any synchronization of their own — it is the
    subject the happens-before detector checks: two accesses from
    different threads, at least one a write, with no
    happens-before path between them, is a data-race finding.

    The [unit Var.t] form is a {e shadow guard} for a structure whose
    own accesses cannot be wrapped (a [Hashtbl], a record field):
    [touch] marks a write to the guarded structure, [observe] a read,
    at the call site, and the detector then proves the surrounding
    locking discipline correct (or not). *)

module Var : sig
  type 'a t

  val make : string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val touch : unit t -> unit  (** [set v ()] — a guarded-structure write *)

  val observe : unit t -> unit  (** [ignore (get v)] — a guarded read *)
end

(** {1 Instrumented spawn/join}

    Wrappers over [Thread.create]/[Domain.spawn] that log the
    spawn/begin/end/join happens-before edges. Without them the
    child's first access would appear concurrent with everything the
    parent did before the spawn. *)

type thread_handle

val spawn : string -> (unit -> unit) -> thread_handle
(** The child's exception, if any, is stored and re-raised at
    {!join}. A handle may be dropped for fire-and-forget threads. *)

val join : thread_handle -> unit

type 'a domain_handle

val spawn_domain : string -> (unit -> 'a) -> 'a domain_handle

val join_domain : 'a domain_handle -> 'a
(** Re-raises the child's exception, like [Domain.join]. *)

(** {1 Arming} *)

type perturb = {
  pseed : int;
  period : int;
      (** roughly one pause per [period] sync operations per thread;
          [<= 0] disables pausing *)
}
(** Seeded schedule perturbation: at operation entry, a pause (a
    [Thread.yield] plus a bounded spin) fires iff a hash of
    [(pseed, per-thread op index, op label)] lands on the period — a
    deterministic function of the thread's own program order, so a
    given seed replays the same pause pattern even though the OS still
    chooses the actual interleaving. *)

val arm : ?perturb:perturb -> unit -> unit
(** Start a trace session: clears the trace and begins recording.
    Sessions do not nest; the caller (the [Lcp_race] driver, tests)
    serializes scenarios. *)

val disarm : unit -> event array
(** Stop recording and return the session's trace in [seq] order.
    Events attempted by stragglers after [disarm] are dropped. *)

