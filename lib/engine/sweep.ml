open Lcp_graph
module R = Lcp_obs.Run_cfg

(* ------------------------------------------------------------------ *)
(* enumeration + canonical dedup                                       *)

(* The orderly generator: work proportional to the class count, not
   the mask space. Representatives are the minimal-mask members of
   their classes ({!Canon.min_mask}), ascending. The listing must pass
   {!Listing.make}'s checks, the A001349 and A000088 accounting gates
   among them, before any sweep runs on it. *)
let enumerate_classes ~cfg n =
  let masks, tallies =
    Orderly.generate ~jobs:cfg.R.jobs ~metrics:cfg.R.metrics n
  in
  match Listing.make ~n tallies masks with
  | Ok _ -> (List.map (Chunk.graph_of_mask n) masks, tallies)
  | Error msg -> raise (Listing.Mismatch ("sweep enumeration: " ^ msg))

(* ------------------------------------------------------------------ *)
(* the cross-sweep class cache

   Locking discipline: the listing table is the only state under
   [cache_lock]; every access goes through {!Sync.with_lock} (lookup,
   publish, reset — never around the enumeration itself, which runs
   outside the lock so workers can overlap; a duplicated computation
   on a race is deterministic and merely wasted). [cache_guard] is the
   table's Sync shadow var, so [lcp race] verifies the discipline.
   The hit/miss tallies are instrumented atomics — they are
   process-lifetime observability, not part of the locked invariant,
   and must not tempt anyone into a bare ref again. *)

module Sync = Lcp_obs.Sync

let cache : (int, Graph.t list * Orderly.tallies) Hashtbl.t =
  Hashtbl.create 16

let cache_lock = Sync.mutex "engine/sweep.cache"
let cache_guard = Sync.Var.make "engine/sweep.cache.table" ()
let hits = Sync.A.make "engine/sweep.cache_hits" 0
let misses = Sync.A.make "engine/sweep.cache_misses" 0

(* The single choke point for class listings. Every call reports into
   [cfg]: cache traffic, plus the enumeration tallies of the listing it
   returns — cached or not — so counters stay deterministic in [jobs]
   and in cache temperature alike. *)
let classes_cached ~cfg n =
  (* materialize both cache counters so an all-hit (or all-miss) run
     serializes the same key set as any other *)
  R.count cfg ~by:0 "cache_hits";
  R.count cfg ~by:0 "cache_misses";
  let cached =
    Sync.with_lock cache_lock (fun () ->
        Sync.Var.observe cache_guard;
        Hashtbl.find_opt cache n)
  in
  (match cached with Some _ -> Sync.A.incr hits | None -> Sync.A.incr misses);
  let ((_, e) as entry) =
    match cached with
    | Some entry ->
        R.count cfg "cache_hits";
        entry
    | None ->
        R.count cfg "cache_misses";
        (* compute outside the lock: workers must not hold it, and a
           duplicated computation on a race is deterministic anyway *)
        let entry =
          R.span cfg "enumerate" (fun () ->
              enumerate_classes ~cfg n)
        in
        Sync.with_lock cache_lock (fun () ->
            Sync.Var.touch cache_guard;
            if not (Hashtbl.mem cache n) then Hashtbl.replace cache n entry);
        entry
  in
  R.count cfg ~by:e.Orderly.candidates "candidates_generated";
  R.count cfg ~by:e.Orderly.connected_classes "connected";
  R.count cfg ~by:e.Orderly.classes "classes";
  R.count cfg ~by:e.Orderly.dedup_hits "dedup_hits";
  entry

let iso_classes ?(cfg = R.default) n = fst (classes_cached ~cfg n)

(* The cache keeps graphs, not masks: only a coordinator needs the
   masks back, once per run. The entry passed [Listing.make] when it
   was enumerated or installed, so this [make] cannot fail. *)
let listing ?(cfg = R.default) n =
  let reps, e = classes_cached ~cfg n in
  let masks = List.map Chunk.wide_mask_of_graph reps in
  match Listing.make ~n e masks with
  | Ok l -> l
  | Error msg -> raise (Listing.Mismatch msg)

let install (l : Listing.t) =
  let entry = (List.map (Chunk.graph_of_mask l.n) l.masks, l.tallies) in
  Sync.with_lock cache_lock (fun () ->
      Sync.Var.touch cache_guard;
      Hashtbl.replace cache l.n entry)

let cache_stats () = (Sync.A.get hits, Sync.A.get misses)

let clear_cache () =
  Sync.with_lock cache_lock (fun () ->
      Sync.Var.touch cache_guard;
      Hashtbl.reset cache);
  Sync.A.set hits 0;
  Sync.A.set misses 0

(* ------------------------------------------------------------------ *)
(* sharding                                                            *)

(* The class key: the representative's edge mask
   (Chunk.wide_mask_of_graph). Representatives are the minimal-mask
   members of their classes, listed ascending, so target order and key
   order agree. *)
let class_key = Chunk.wide_mask_of_graph

(* splitmix64's output function on the key: shards must cut the class
   stream evenly even though minimal edge masks are anything but
   uniform, and must depend on nothing except the key — not [jobs],
   not the keep filter's order of evaluation. *)
let mix64 key =
  let open Int64 in
  let z = add (of_int key) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let shard_of_key ~shards key =
  if shards < 1 then invalid_arg "Sweep.shard_of_key: shards must be >= 1";
  Int64.to_int (Int64.rem (Int64.logand (mix64 key) Int64.max_int)
                  (Int64.of_int shards))

let shard_of_class ~shards g = shard_of_key ~shards (class_key g)

(* ------------------------------------------------------------------ *)
(* sweeps                                                              *)

type mode = Exhaustive | Search_counterexample

type counters = {
  candidates : int;
  connected : int;
  classes : int;
  dedup_hits : int;
  kept : int;
  checked : int;
  passed : int;
  violations : int;
}

type 'c summary = {
  n : int;
  jobs : int;
  mode : mode;
  counters : counters;
  counterexample : (Graph.t * 'c) option;
  wall_s : float;
}

module M = Lcp_obs.Metrics

exception Checkpoint_mismatch of string

let mismatch fmt = Printf.ksprintf (fun msg -> raise (Checkpoint_mismatch msg)) fmt

(* The checkpointed exhaustive runner: targets are consumed in chunks
   of [max 32 (4 * jobs)] classes, and after every chunk the full
   counter state is written atomically to [policy.path]. A resumed run
   validates the header and the class stream (the last completed
   class's key must match), credits the checkpoint's labelings into
   the cfg so the final metric covers the whole logical sweep, and
   continues from the first unfinished class. Violations persist as
   class keys; the counterexample instance is rebuilt at the end by
   re-running [check] on the smallest violating key (that rerun lands
   in the metrics {e after} the final checkpoint write, so on-disk
   counters stay bit-identical to an uninterrupted run's). *)
let run_checkpointed ~cfg ~jobs ~n ~shards ~shard ~e
    ~targets ~kept ~check ~on_chunk ~max_chunks (policy : Checkpoint.policy) =
  let enum =
    {
      Checkpoint.candidates = e.Orderly.candidates;
      connected = e.Orderly.connected_classes;
      classes = e.Orderly.classes;
      dedup_hits = e.Orderly.dedup_hits;
    }
  in
  let fresh =
    {
      Checkpoint.tag = policy.Checkpoint.tag;
      n;
      shards;
      shard;
      enum;
      kept;
      completed = 0;
      last_key = -1;
      checked = 0;
      passed = 0;
      violations = 0;
      violating_keys = [];
      labelings = 0;
      complete = kept = 0;
      saved_at = 0;
    }
  in
  let resumed = policy.Checkpoint.resume && Sys.file_exists policy.Checkpoint.path in
  let state =
    if not resumed then fresh
    else
      match Checkpoint.load policy.Checkpoint.path with
      | Error msg -> mismatch "sweep --resume: %s" msg
      | Ok prev ->
          (match Checkpoint.header_mismatch fresh prev with
          | Some what ->
              mismatch "sweep --resume: checkpoint %s disagrees on %s"
                policy.Checkpoint.path what
          | None -> ());
          if prev.Checkpoint.shard <> shard then
            mismatch "sweep --resume: checkpoint belongs to another shard";
          if prev.Checkpoint.kept <> kept then
            mismatch "sweep --resume: checkpoint kept-count mismatch";
          if
            prev.Checkpoint.completed > 0
            && class_key targets.(prev.Checkpoint.completed - 1)
               <> prev.Checkpoint.last_key
          then
            mismatch "sweep --resume: checkpoint does not match the class stream";
          prev
  in
  (* the resumed share of the work counter, so metrics describe the
     logical sweep, not just this process's slice *)
  if state.Checkpoint.labelings > 0 then
    R.count cfg ~by:state.Checkpoint.labelings "labelings_checked";
  let base =
    M.counter cfg.R.metrics "labelings_checked" - state.Checkpoint.labelings
  in
  let chunk = max 32 (4 * jobs) in
  let pool_jobs = Pool.effective_jobs ~jobs kept in
  let st = ref state in
  if (not !st.Checkpoint.complete) || not resumed then
    Checkpoint.save ~path:policy.Checkpoint.path !st;
  let chunks_done = ref 0 in
  let within_budget () =
    match max_chunks with None -> true | Some m -> !chunks_done < m
  in
  while (not !st.Checkpoint.complete) && within_budget () do
    let s = !st in
    let lo = s.Checkpoint.completed in
    let hi = min kept (lo + chunk) in
    let verdicts =
      Pool.run ~metrics:cfg.R.metrics ~jobs:pool_jobs (hi - lo) (fun i ->
          check targets.(lo + i))
    in
    let viol = ref 0 and keys = ref [] in
    Array.iteri
      (fun i v ->
        match v with
        | None -> ()
        | Some _ ->
            incr viol;
            keys := class_key targets.(lo + i) :: !keys)
      verdicts;
    let s =
      {
        s with
        Checkpoint.completed = hi;
        last_key = class_key targets.(hi - 1);
        checked = s.Checkpoint.checked + (hi - lo);
        passed = s.Checkpoint.passed + (hi - lo - !viol);
        violations = s.Checkpoint.violations + !viol;
        violating_keys = s.Checkpoint.violating_keys @ List.rev !keys;
        labelings = M.counter cfg.R.metrics "labelings_checked" - base;
        complete = hi = kept;
      }
    in
    Checkpoint.save ~path:policy.Checkpoint.path s;
    incr chunks_done;
    on_chunk ~completed:s.Checkpoint.completed ~total:kept;
    st := s
  done;
  let s = !st in
  if not s.Checkpoint.complete then
    (* preempted by [max_chunks]: the checkpoint on disk holds the
       completed prefix and a later [--resume] continues it. No
       counterexample materialization — the minimal violating key may
       still be ahead of us. *)
    (s.Checkpoint.checked, s.Checkpoint.passed, s.Checkpoint.violations, None)
  else
  let counterexample =
    match s.Checkpoint.violating_keys with
    | [] -> None
    | keys -> (
        let key = List.fold_left min max_int keys in
        let idx = ref (-1) in
        Array.iteri (fun i g -> if !idx < 0 && class_key g = key then idx := i) targets;
        if !idx < 0 then
          failwith "sweep checkpoint: violating key not in the class stream";
        match check targets.(!idx) with
        | Some c -> Some (targets.(!idx), c)
        | None ->
            failwith "sweep checkpoint: recorded violation did not reproduce")
  in
  (s.Checkpoint.checked, s.Checkpoint.passed, s.Checkpoint.violations,
   counterexample)

let run ?(cfg = R.default) ?(mode = Exhaustive) ?shard ?checkpoint
    ?(on_chunk = fun ~completed:_ ~total:_ -> ()) ?max_chunks
    ?(keep = fun _ -> true) ~n ~check () =
  (match shard with
  | Some (i, k) when k < 1 || i < 0 || i >= k ->
      invalid_arg "Sweep.run: shard index out of range"
  | _ -> ());
  (match (checkpoint, mode) with
  | Some _, Search_counterexample ->
      invalid_arg "Sweep.run: checkpoints require Exhaustive mode"
  | _ -> ());
  (match (checkpoint, max_chunks) with
  | None, Some _ -> invalid_arg "Sweep.run: max_chunks requires a checkpoint"
  | _, Some m when m < 1 -> invalid_arg "Sweep.run: max_chunks must be >= 1"
  | _ -> ());
  R.span cfg "sweep" (fun () ->
      let t0 = Lcp_obs.Clock.now_s () in
      let jobs = cfg.R.jobs in
      let reps, e = classes_cached ~cfg n in
      let shards, shard_ix =
        match shard with None -> (1, 0) | Some (i, k) -> (k, i)
      in
      let targets =
        Array.of_list
          (List.filter
             (fun g ->
               keep g
               && (shards = 1 || shard_of_class ~shards g = shard_ix))
             reps)
      in
      let kept = Array.length targets in
      R.count cfg ~by:kept "kept";
      let checked, passed, violations, counterexample =
        R.span cfg "check" (fun () ->
            match mode with
            | Exhaustive -> (
                match checkpoint with
                | Some policy ->
                    run_checkpointed ~cfg ~jobs ~n ~shards
                      ~shard:shard_ix ~e ~targets ~kept ~check ~on_chunk
                      ~max_chunks policy
                | None ->
                    let verdicts =
                      Pool.run ~metrics:cfg.R.metrics
                        ~jobs:(Pool.effective_jobs ~jobs kept) kept (fun i ->
                          check targets.(i))
                    in
                    let violations = ref 0 and first = ref None in
                    Array.iteri
                      (fun i v ->
                        match v with
                        | None -> ()
                        | Some c ->
                            incr violations;
                            if !first = None then first := Some (targets.(i), c))
                      verdicts;
                    (kept, kept - !violations, !violations, !first))
            | Search_counterexample ->
                let checked = Sync.A.make "engine/sweep.checked" 0 in
                let hit =
                  Pool.search ~metrics:cfg.R.metrics
                    ~jobs:(Pool.effective_jobs ~jobs kept) kept (fun i ->
                      Sync.A.incr checked;
                      check targets.(i))
                in
                let checked = Sync.A.get checked in
                (match hit with
                | Some (i, c) ->
                    (* which round the early exit fired on: a gauge —
                       the winning class index is deterministic, but
                       how much work ran before cancellation is not *)
                    R.set_gauge cfg "early_exit_round" i;
                    (checked, checked - 1, 1, Some (targets.(i), c))
                | None -> (checked, checked, 0, None)))
      in
      R.count cfg ~by:checked "checked";
      R.count cfg ~by:passed "passed";
      R.count cfg ~by:violations "violations";
      {
        n;
        jobs;
        mode;
        counters =
          {
            candidates = e.Orderly.candidates;
            connected = e.Orderly.connected_classes;
            classes = e.Orderly.classes;
            dedup_hits = e.Orderly.dedup_hits;
            kept;
            checked;
            passed;
            violations;
          };
        counterexample;
        wall_s = Lcp_obs.Clock.now_s () -. t0;
      })
