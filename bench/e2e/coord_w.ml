(* coord-n8: Coordinator.run over the degree-one n=8 sweep, 4 shards
   on 2 subprocess workers of one domain each, with a fresh checkpoint
   directory per run. The only multi-process workload: process spawn,
   per-chunk checkpoint writes, supervision polling and the merge, with
   enumeration repeated by every worker. *)

open Lcp
open Common
module Coordinator = Lcp_serve.Coordinator
module Checkpoint = Lcp_engine.Checkpoint
module Run_cfg = Lcp_obs.Run_cfg

let shards = 4
let workers = 2
let n (sc : scale) = if sc.quick then 5 else 8

(* Largest VmHWM among the shard workers, sampled every 20 ms while
   they run (a reaped worker's /proc entry is gone, so the peak is read
   while it lives). *)
type watch = { pids : int list ref; lock : Mutex.t; mutable peak : float; stop : bool Atomic.t }

let watch_start () =
  let w = { pids = ref []; lock = Mutex.create (); peak = 0.; stop = Atomic.make false } in
  let rec loop () =
    let pids = Mutex.protect w.lock (fun () -> !(w.pids)) in
    List.iter
      (fun pid ->
        match vmhwm_mb (string_of_int pid) with
        | Some mb -> w.peak <- Float.max w.peak mb
        | None -> ())
      pids;
    if not (Atomic.get w.stop) then begin
      Thread.delay 0.02;
      loop ()
    end
  in
  (w, Thread.create loop ())

let watch_stop (w, th) =
  Atomic.set w.stop true;
  Thread.join th;
  w.peak

let config sc ~bin ~dir ~on_spawn =
  {
    (Coordinator.default_config ~decoder:"degree-one" ~n:(n sc) ~shards ~dir) with
    Coordinator.workers;
    jobs = 1;
    executor = Coordinator.Subprocess { bin };
    on_spawn;
  }

let check_merged g sc (o : Coordinator.outcome) =
  let m = o.Coordinator.merged in
  match Sweep_w.expected_totals (n sc) with
  | Some (kept, labelings) ->
      gate g
        (m.Checkpoint.kept = kept && m.Checkpoint.passed = kept
        && m.Checkpoint.violations = 0 && m.Checkpoint.labelings = labelings)
        "coord n=%d: merged kept/passed/violations/labelings %d/%d/%d/%d, expected %d/%d/0/%d"
        (n sc) m.Checkpoint.kept m.Checkpoint.passed m.Checkpoint.violations
        m.Checkpoint.labelings kept kept labelings
  | None -> gate g false "coord n=%d: no expected totals" (n sc)

(* One coordinated run in a fresh directory (left in place for the
   caller): (outcome, dir, wall, cpu incl. reaped workers, worker peak). *)
let coord_once sc bin =
  let dir = fresh_dir "coord" in
  let w = watch_start () in
  let on_spawn ~shard:_ ~attempt:_ ~pid =
    Mutex.protect (fst w).lock (fun () -> (fst w).pids := pid :: !((fst w).pids))
  in
  let c0 = cpu_self () in
  let res, wall =
    timed (fun () ->
        Coordinator.run ~cfg:(Run_cfg.make ~jobs:1 ()) (config sc ~bin ~dir ~on_spawn))
  in
  let cpu = cpu_self () -. c0 in
  (res, dir, wall, cpu, watch_stop w)

(* launches attempted and launches that did not finish *)
let launches = function
  | Ok o -> (o.Coordinator.launched, o.Coordinator.restarts)
  | Error _ -> (shards, shards)

let run (sc : scale) ~bin =
  let g = gates () in
  let results =
    reps sc (fun () ->
        let res, dir, wall, cpu, peak = coord_once sc bin in
        rm_rf dir;
        (match res with
        | Ok o -> check_merged g sc o
        | Error e -> gate g false "coord: %s" e);
        (launches res, wall, cpu, peak))
  in
  let attempted = List.fold_left (fun a ((l, _), _, _, _) -> a + l) 0 results in
  let failed = List.fold_left (fun a ((_, f), _, _, _) -> a + f) 0 results in
  {
    rows =
      [
        row "wall_s" "s" (List.map (fun (_, w, _, _) -> w) results);
        row "cpu_s" "s" (List.map (fun (_, _, c, _) -> c) results);
        row "peak_rss_mb" "MB" (List.map (fun (_, _, _, p) -> p) results);
        one "fail_frac" "ratio" (safe_div (fi failed) (fi attempted));
      ];
    attempted;
    failed;
    errors = !g;
  }

(* ---- traced pass --------------------------------------------------- *)

(* The same four shard commands the coordinator forks, run [workers] at
   a time with no supervisor. Each must exit 0 leaving a complete
   checkpoint, or the baseline it gives coord.overhead_s is void. *)
let raw_run g sc bin =
  let dir = fresh_dir "raw" in
  let path i = Coordinator.shard_path ~dir i in
  let argv i =
    [|
      bin; "sweep"; "degree-one"; "-n"; string_of_int (n sc); "-j"; "1";
      "--strategy"; "orderly"; "--shards"; string_of_int shards; "--shard";
      string_of_int i; "--checkpoint"; path i; "--resume";
    |]
  in
  let (), wall =
    timed (fun () ->
        let next = ref 0 and running = ref [] in
        let launch () =
          running := (spawn (argv !next), !next) :: !running;
          incr next
        in
        while !next < workers do launch () done;
        while !running <> [] do
          (match Unix.wait () with
          | pid, st -> (
              match List.assoc_opt pid !running with
              | Some i ->
                  running := List.remove_assoc pid !running;
                  gate g (st = Unix.WEXITED 0) "coord: raw shard %d did not exit 0" i
              | None -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          if !next < shards && List.length !running < workers then launch ()
        done)
  in
  for i = 0 to shards - 1 do
    match Checkpoint.load (path i) with
    | Ok ck -> gate g ck.Checkpoint.complete "coord: raw shard %d checkpoint incomplete" i
    | Error e -> gate g false "coord: raw shard %d checkpoint: %s" i e
  done;
  rm_rf dir;
  wall

(* Mean wall of [k] runs of [f]. *)
let mean_of k f =
  let (), s = timed (fun () -> for _ = 1 to k do f () done) in
  s /. fi k

let trace (sc : scale) ~bin =
  let g = gates () in
  let res, dir, wall, _, _ = coord_once sc bin in
  let o =
    match res with
    | Ok o ->
        check_merged g sc o;
        Some o
    | Error e ->
        gate g false "coord: %s" e;
        None
  in
  let raw_s = raw_run g sc bin in
  let spawn_s = mean_of 20 (fun () -> ignore (run_quiet [| bin; "--version" |])) in
  let _, orderly1, _ = Sweep_w.enumerate ~jobs:1 (n sc) in
  (* an in-process checkpointed run of shard 0 on the warm listing *)
  let ckdir = fresh_dir "ck" in
  let path = Filename.concat ckdir "shard-0.json" in
  let saves = ref 0 in
  let _, shard0_s =
    timed (fun () ->
        Checker.soundness_sweep ~cfg:(Run_cfg.make ~jobs:1 ()) ~shard:(0, shards)
          ~checkpoint:{ Checkpoint.path; resume = false; tag = "degree-one" }
          ~on_chunk:(fun ~completed:_ ~total:_ -> incr saves)
          (Sweep_w.suite ()) ~n:(n sc))
  in
  let ck = Result.get_ok (Checkpoint.load path) in
  let iters = 50 in
  let save_s = mean_of iters (fun () -> Checkpoint.save ~path:(path ^ ".probe") ck) in
  let load_s = mean_of iters (fun () -> ignore (Checkpoint.load path)) in
  let shard_cks =
    List.init shards (fun i -> Result.get_ok (Checkpoint.load (Coordinator.shard_path ~dir i)))
  in
  let merge_s = mean_of iters (fun () -> ignore (Checkpoint.merge shard_cks)) in
  let bytes = fi (Unix.stat path).Unix.st_size in
  rm_rf ckdir;
  rm_rf dir;
  let reports = match o with Some o -> o.Coordinator.shard_reports | None -> [] in
  let launched = match o with Some o -> o.Coordinator.launched | None -> 0 in
  let restarts = match o with Some o -> o.Coordinator.restarts | None -> 0 in
  let kept_all = fi (List.fold_left (fun a r -> a + r.Coordinator.kept) 0 reports) in
  let scale = safe_div kept_all (fi ck.Checkpoint.kept) in
  let walls = List.map (fun (r : Coordinator.shard_report) -> r.wall_s) reports in
  let w = fi workers in
  (* shard 0's in-process wall less its saves, scaled to all shards by
     kept classes: the search every worker does *)
  let search = (shard0_s -. (fi !saves *. save_s)) *. scale in
  let parts =
    [
      ("orderly", fi shards *. orderly1 /. w);
      ("search", search /. w);
      ("checkpoint", fi !saves *. scale *. save_s /. w);
      ("proc", fi launched *. spawn_s /. w);
      ("coordinator", wall -. raw_s);
    ]
  in
  {
    rows =
      Layers.shares ~wall parts
      @ [
          one "coord.raw_s" "s" raw_s;
          one "coord.overhead_s" "s" (wall -. raw_s);
          one "coord.straggler_ratio" "ratio"
            (safe_div (List.fold_left Float.max 0. walls) (sum walls /. fi (List.length walls)));
          one "coord.launched" "count" (fi launched);
          one "coord.restarts" "count" (fi restarts);
          one "coord.enum_repeat_s" "s" (fi (shards - 1) *. orderly1);
          one "proc.spawn_ms" "ms" (spawn_s *. 1e3);
          one "checkpoint.saves" "count" (fi !saves);
          one "checkpoint.save_us" "us" (save_s *. 1e6);
          one "checkpoint.load_us" "us" (load_s *. 1e6);
          one "checkpoint.merge_us" "us" (merge_s *. 1e6);
          one "checkpoint.bytes" "bytes" bytes;
        ];
    attempted = launched;
    failed = restarts;
    errors = !g;
  }
