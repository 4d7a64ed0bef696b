(* sweep-n8 and shard-n8: the degree-one soundness sweep, whole or one
   slice. The untraced op is the public Checker.soundness_sweep with
   the class cache cleared first. The traced pass splits the same work
   into its layers by calling each layer's public entry point: a cold
   Sweep.iso_classes, then Sweep.run over the cached listing with a
   check closure equal to Checker's, timed per domain. *)

open Lcp
open Lcp_graph
open Lcp_local
open Common
module Sweep = Lcp_engine.Sweep
module Run_cfg = Lcp_obs.Run_cfg
module Metrics = Lcp_obs.Metrics

type params = { n : int; jobs : int; shard : (int * int) option }

let params name (sc : scale) =
  let n = if sc.quick then 5 else 8 in
  match name with
  | "sweep-n8" -> { n; jobs = 2; shard = None }
  | _ -> { n; jobs = 1; shard = Some (0, if sc.quick then 4 else 16) }

(* Known totals of the unsharded degree-one sweep: (kept classes,
   labelings_checked). Kept = checked = passed on a passing sweep. *)
let expected_totals n = match n with 8 -> Some (10_935, 11_052_605) | 5 -> Some (16, 4_950) | _ -> None

let expected_kept p =
  match (p.n, p.shard) with
  | 8, Some (0, 16) -> Some 677
  | n, None -> Option.map fst (expected_totals n)
  | _ -> None

let suite () = (Option.get (Registry.find "degree-one")).Registry.suite

(* Everything a rep's result must reproduce: the sweep counters and the
   labelings the certificate searches inspected. *)
type signature = Sweep.counters * int * bool

let signature (s : _ Sweep.summary) cfg : signature =
  ( s.Sweep.counters,
    Metrics.counter cfg.Run_cfg.metrics "labelings_checked",
    s.Sweep.counterexample = None )

let check_signature g p ((c, labelings, pass) : signature) =
  gate g pass "sweep n=%d: verdict is not pass" p.n;
  gate g (c.Sweep.kept = c.Sweep.checked && c.Sweep.checked = c.Sweep.passed)
    "sweep n=%d: kept/checked/passed differ (%d/%d/%d)" p.n c.Sweep.kept
    c.Sweep.checked c.Sweep.passed;
  (match expected_kept p with
  | Some k -> gate g (c.Sweep.kept = k) "sweep n=%d: kept %d, expected %d" p.n c.Sweep.kept k
  | None -> ());
  match (p.shard, expected_totals p.n) with
  | None, Some (_, l) ->
      gate g (labelings = l) "sweep n=%d: labelings_checked %d, expected %d" p.n labelings l
  | _ -> ()

(* One untraced rep: (signature, wall, cpu). *)
let sweep_once p suite =
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs:p.jobs () in
  let c0 = cpu_self () in
  let s, wall =
    timed (fun () -> Checker.soundness_sweep ~cfg ?shard:p.shard suite ~n:p.n)
  in
  (signature s cfg, wall, cpu_self () -. c0)

let run (sc : scale) p =
  let g = gates () in
  let suite = suite () in
  let results = reps sc (fun () -> sweep_once p suite) in
  let sigs = List.map (fun (s, _, _) -> s) results in
  check_signature g p (List.hd sigs);
  gate g (List.for_all (( = ) (List.hd sigs)) sigs) "sweep n=%d: counters differ across reps" p.n;
  (* CPU time tells more than wall only where two domains work *)
  let cpu = if p.jobs > 1 then [ row "cpu_s" "s" (List.map (fun (_, _, c) -> c) results) ] else [] in
  {
    rows =
      [
        row "wall_s" "s" (List.map (fun (_, w, _) -> w) results);
        one "peak_rss_mb" "MB" (self_vmhwm_mb ());
      ]
      @ cpu;
    attempted = List.length results;
    failed = 0;
    errors = !g;
  }

(* ---- traced pass --------------------------------------------------- *)

(* Per-domain search accumulators: each pool domain adds to its own
   record, registered once per domain and summed after the sweep. *)
type acc = { mutable busy : float }

let registered : acc list ref = ref []
let reg_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = { busy = 0. } in
      Mutex.protect reg_lock (fun () -> registered := a :: !registered);
      a)

(* The body of Checker.soundness_sweep's check closure, with the
   certificate search timed. *)
let traced_check cfg (suite : Decoder.suite) g =
  let inst = Instance.make g in
  let alphabet = suite.Decoder.adversary_alphabet inst in
  let t0 = now () in
  let witness, inspected =
    Prover.search_accepted ~cfg suite.Decoder.dec ~alphabet inst
  in
  let a = Domain.DLS.get acc_key in
  a.busy <- a.busy +. (now () -. t0);
  Run_cfg.count cfg ~by:inspected "labelings_checked";
  Option.map (Instance.with_labels inst) witness

let keep g = not (Coloring.is_bipartite g)

let in_shard p g =
  match p.shard with
  | None -> true
  | Some (i, k) -> Sweep.shard_of_class ~shards:k g = i

let enumerate ~jobs n =
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs () in
  let classes, s = timed (fun () -> Sweep.iso_classes ~cfg n) in
  (classes, s, cfg)

(* Mean Canon.key time over the class listing. *)
let canon_key_ns ~iters classes =
  let count = iters * List.length classes in
  let (), s =
    timed (fun () ->
        for _ = 1 to iters do
          List.iter (fun g -> ignore (Sys.opaque_identity (Lcp_engine.Canon.key g))) classes
        done)
  in
  safe_div (s *. 1e9) (fi count)

let pool_imbalance cfg =
  let tasks =
    List.filter_map
      (fun (name, v) ->
        if String.starts_with ~prefix:"pool/worker" name then Some (fi v) else None)
      (Metrics.counters cfg.Run_cfg.metrics)
  in
  match tasks with
  | [] | [ _ ] -> 1.
  | l -> safe_div (List.fold_left Float.max 0. l) (List.fold_left Float.min infinity l)

let trace (sc : scale) p =
  let g = gates () in
  let suite = suite () in
  let dec = suite.Decoder.dec in
  (* the first rep in a process pays heap growth: warm up, then take the
     untraced baseline as the median of 3 reps *)
  ignore (sweep_once p suite);
  let base = List.init 3 (fun _ -> sweep_once p suite) in
  let base_sig = (fun (s, _, _) -> s) (List.hd base) in
  let untraced_wall = median (List.map (fun (_, w, _) -> w) base) in
  (* the traced run: cold enumeration, then the check phase *)
  registered := [];
  let cfg = Run_cfg.make ~jobs:p.jobs () in
  let t0 = now () in
  let classes, orderly_s, ecfg = enumerate ~jobs:p.jobs p.n in
  let summary, check_s =
    timed (fun () ->
        Sweep.run ~cfg ?shard:p.shard ~mode:Sweep.Exhaustive ~n:p.n ~keep
          ~check:(traced_check cfg suite) ())
  in
  let traced_wall = now () -. t0 in
  let traced_sig = signature summary cfg in
  check_signature g p traced_sig;
  gate g (traced_sig = base_sig) "sweep n=%d: traced counters differ from untraced" p.n;
  let busy = sum (List.map (fun a -> a.busy) !registered) in
  let labelings = Metrics.counter cfg.Run_cfg.metrics "labelings_checked" in
  let counter name = fi (Metrics.counter cfg.Run_cfg.metrics name) in
  (* enumeration at the other pool width *)
  let other_jobs = if p.jobs = 1 then 2 else 1 in
  let _, other_s, _ = enumerate ~jobs:other_jobs p.n in
  let j1, j2 = if p.jobs = 1 then (orderly_s, other_s) else (other_s, orderly_s) in
  let key_ns = canon_key_ns ~iters:(if sc.quick then 1 else 5) classes in
  (* sequential sub-pass over the kept classes: the Auto and table-build
     work each search starts with, and allocation on every 8th class *)
  let kept = List.filter (fun g -> keep g && in_shard p g) classes in
  let auto_s = ref 0. and build_s = ref 0. and rigid = ref 0 and eligible = ref 0 in
  let gc_labelings = ref 0 and minor = ref 0. and major = ref 0. in
  List.iteri
    (fun i gr ->
      let inst = Instance.make gr in
      let alphabet = suite.Decoder.adversary_alphabet inst in
      if Prover.orbit_eligible dec inst then begin
        incr eligible;
        let a, t = timed (fun () -> Lcp_engine.Auto.of_graph gr) in
        auto_s := !auto_s +. t;
        if Lcp_engine.Auto.is_trivial a then incr rigid
      end;
      let _, t =
        timed (fun () ->
            Lcp_engine.Eval_cache.create ~radius:dec.Decoder.radius
              ~accepts:dec.Decoder.accepts ~alphabet inst)
      in
      build_s := !build_s +. t;
      if i mod 8 = 0 then begin
        let scfg = Run_cfg.make ~jobs:1 () in
        let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
        let _, inspected = Prover.search_accepted ~cfg:scfg dec ~alphabet inst in
        let _, _, major1 = Gc.counters () in
        minor := !minor +. (Gc.minor_words () -. minor0);
        major := !major +. (major1 -. major0);
        gc_labelings := !gc_labelings + inspected
      end)
    kept;
  let jobs = fi p.jobs in
  let idle = (jobs *. check_s) -. busy in
  let self = busy -. !auto_s -. !build_s in
  let unattributed = traced_wall -. orderly_s -. check_s in
  let hits = counter "eval_cache_hits" and misses = counter "eval_cache_misses" in
  let candidates = fi (Metrics.counter ecfg.Run_cfg.metrics "candidates_generated") in
  let dedup = fi (Metrics.counter ecfg.Run_cfg.metrics "dedup_hits") in
  {
    rows =
      Layers.shares ~wall:traced_wall
        [
          ("orderly", orderly_s);
          ("auto", !auto_s /. jobs);
          ("eval_cache", !build_s /. jobs);
          ("search", self /. jobs);
          ("pool", idle /. jobs);
        ]
      @ [
          one "orderly.s" "s" orderly_s;
          one "orderly.candidates" "count" candidates;
          one "orderly.dedup_frac" "ratio" (safe_div dedup candidates);
          one "orderly.jobs_speedup" "ratio" (safe_div j1 j2);
          one "canon.key_ns" "ns" key_ns;
          one "search.busy_s" "s" busy;
          one "search.labelings" "count" (fi labelings);
          one "search.ns_per_labeling" "ns" (safe_div (busy *. 1e9) (fi labelings));
          one "search.minor_words_per_labeling" "words" (safe_div !minor (fi !gc_labelings));
          one "search.major_words" "words" !major;
          one "search.self_s" "s" self;
          one "auto.s" "s" !auto_s;
          one "auto.rigid_frac" "ratio" (safe_div (fi !rigid) (fi !eligible));
          one "orbit.pruned_branches" "count" (counter "orbit_pruned_branches");
          one "eval_cache.build_s" "s" !build_s;
          one "eval_cache.hit_ratio" "ratio" (safe_div hits (hits +. misses));
          one "eval_cache.misses" "count" misses;
          one "pool.idle_s" "s" idle;
          one "pool.task_imbalance" "ratio" (pool_imbalance cfg);
          one "sweep.unattributed_s" "s" unattributed;
          one "trace.overhead_frac" "ratio"
            (safe_div (traced_wall -. untraced_wall) untraced_wall);
          one "gc.top_heap_mb" "MB" (top_heap_mb ());
        ];
    attempted = 5;
    failed = 0;
    errors = !g;
  }
