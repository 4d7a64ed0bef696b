(* The sweep coordinator: its supervision policy on a seeded
   simulator, subprocess supervision with injected worker kills, the
   incomplete-shard merge refusal, a live daemon coordinating a sweep
   server-side, the class listing it hands its workers (and every way
   a worker refuses a bad one), and the small-sweep pool bypass. The
   load-bearing assertion throughout: the coordinated
   merged report is byte-identical to the unsharded run's, whatever
   happened to the workers along the way. *)

open Helpers
module Json = Lcp_obs.Json
module Run_cfg = Lcp_obs.Run_cfg
module Sweep = Lcp_engine.Sweep
module Checkpoint = Lcp_engine.Checkpoint
module Listing = Lcp_engine.Listing
module Orderly = Lcp_engine.Orderly
module Coordinator = Lcp_serve.Coordinator
module Protocol = Lcp_serve.Protocol
module Server = Lcp_serve.Server
module Session = Lcp_serve.Session
module Client = Lcp_serve.Client

let check_str = Alcotest.(check string)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lcp-test-coord-%d-%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir d 0o700;
    d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  end

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let suite_of key = (Option.get (Lcp.Registry.find key)).Lcp.Registry.suite

(* The unsharded reference: the same sweep run in-process through one
   checkpoint, rendered exactly as --merge would render it. *)
let reference_report ~decoder ~n =
  let path = Filename.temp_file "lcp-test-coord-ref" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs:1 () in
  ignore
    (Lcp.Checker.soundness_sweep ~cfg (suite_of decoder) ~n
       ~checkpoint:{ Checkpoint.path; resume = false; tag = decoder });
  match Checkpoint.load path with
  | Error e -> Alcotest.fail e
  | Ok ck -> Json.to_string_pretty (Checkpoint.report_json ck)

(* [f ()], checking that it leaves no fd open and no child unreaped:
   the coordinator closes every worker pipe and reaps every worker on
   merge, restart and abort. *)
let leaves_nothing_behind f =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = fds () in
  let r = f () in
  check_int "no fd left open" before (fds ());
  check_bool "no child left unreaped" true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false);
  r

let run_exn config =
  match leaves_nothing_behind (fun () -> Coordinator.run config) with
  | Ok o -> o
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* the supervision policy on virtual time                              *)

(* A seeded simulator: it drives [Supervise.step] exactly as
   [Coordinator.run]'s loop does (a Tick, then for each unfinished
   shard either the reap of its exited worker or one checkpoint read)
   against scripted workers on a virtual clock whose ticks are at
   most 0.08 s apart, and checks every action against an independent
   model of the policy. *)

module S = Lcp_serve.Supervise

let heavy = Sys.getenv_opt "LCP_HEAVY" <> None

(* The restart schedule, written out independently of the policy:
   attempt 1 at once, then 0.25 s doubling, capped at 8 s. *)
let expected_backoff attempt =
  if attempt = 1 then 0.
  else Float.min 8. (0.25 *. (2. ** float_of_int (attempt - 2)))

(* One simulated worker: a chunk save after each gap (the first timed
   from its spawn), then [ending] [linger] seconds after the last save,
   or never ([None]: hung). *)
type script = { gaps : float list; ending : S.status option; linger : float }

type worker = {
  attempt : int;
  mutable saves : float list;  (* absolute clock times, ascending *)
  mutable last : float;  (* spawn or the last save so far *)
  mutable exit : (float * S.status) option;
}

type sim = {
  outcome : (unit, string) result;
  spawns : (int * int * float) list;  (* shard, attempt, clock *)
  restarts : int;
  stall_kills : int;
  injected : int;
}

let show = function
  | S.Exit c -> Printf.sprintf "exit %d" c
  | S.Signal s -> Printf.sprintf "signal %d" s

let sim_ck =
  {
    Checkpoint.tag = "sim";
    n = 0;
    shards = 1;
    shard = 0;
    enum = { candidates = 0; connected = 0; classes = 0; dedup_hits = 0 };
    kept = 0;
    completed = 0;
    last_key = -1;
    checked = 0;
    passed = 0;
    violations = 0;
    violating_keys = [];
    labelings = 0;
    complete = false;
    saved_at = 0;
  }

let simulate ~label ?(kept = fun _ -> 2) ?(done_at_start = fun _ -> false)
    ?(next_tick = fun t -> t +. 0.05) ~shards ~workers ~stall_s
    ~max_restarts ~inject_kill script =
  let fail fmt =
    Printf.ksprintf (fun m -> Alcotest.fail (label ^ ": " ^ m)) fmt
  in
  let kept = Array.init shards kept in
  (* the shard checkpoints on the simulated disk; [saved_at] is
     truncated to whole seconds as [Checkpoint.save] does *)
  let save i ~completed ~at =
    Some
      {
        sim_ck with
        Checkpoint.shards;
        shard = i;
        kept = kept.(i);
        completed;
        complete = completed = kept.(i);
        saved_at = int_of_float at;
      }
  in
  let disk =
    Array.init shards (fun i ->
        if done_at_start i then save i ~completed:kept.(i) ~at:0. else None)
  in
  let completed i =
    match disk.(i) with Some ck -> ck.Checkpoint.completed | None -> 0
  in
  let live = Array.make shards None and attempts = Array.make shards 0 in
  let finished = Array.make shards false in
  let crashed_at = Array.make shards 0. in
  let now = ref 0. and outcome = ref None and spawns = ref [] in
  let crashes = ref 0 and stall_kills = ref 0 and injected = ref 0 in
  let rec advance i w =
    match w.saves with
    | at :: rest when at <= !now ->
        w.saves <- rest;
        w.last <- at;
        disk.(i) <- save i ~completed:(completed i + 1) ~at;
        advance i w
    | _ -> ()
  in
  let alive w = match w.exit with Some (e, _) -> e > !now | None -> true in
  let launch i attempt ~preempt =
    let sc = script ~shard:i ~attempt ~remaining:(kept.(i) - completed i) in
    let gaps = List.filteri (fun k _ -> k < kept.(i) - completed i) sc.gaps in
    (* [--max-chunks 1]: one chunk save, then exit 0 *)
    let gaps, ending =
      match gaps with
      | g :: _ :: _ when preempt -> ([ g ], Some (S.Exit 0))
      | _ -> (gaps, sc.ending)
    in
    let t = ref !now in
    let saves = List.map (fun g -> t := !t +. g; !t) gaps in
    let exit = Option.map (fun st -> (!t +. sc.linger, st)) ending in
    { attempt; saves; last = !now; exit }
  in
  let perform ~aborting = function
    | S.Spawn { shard = i; attempt; preempt } ->
        if finished.(i) then fail "shard %d relaunched after it finished" i;
        if live.(i) <> None then fail "shard %d launched while its worker lives" i;
        if attempt <> attempts.(i) + 1 then
          fail "shard %d: attempt %d after %d" i attempt attempts.(i);
        if attempt > max_restarts + 1 then
          fail "shard %d: attempt %d breaks a budget of %d restarts" i attempt
            max_restarts;
        if attempt > 1 && !now < crashed_at.(i) +. expected_backoff attempt -. 1e-9
        then
          fail "shard %d: attempt %d at %.3f s, before its backoff from %.3f s" i
            attempt !now crashed_at.(i);
        if preempt <> (inject_kill = Some i && attempt = 1) then
          fail "shard %d: attempt %d with preempt %b" i attempt preempt;
        if Array.fold_left (fun n w -> if w = None then n else n + 1) 0 live >= workers
        then fail "more than %d workers at once" workers;
        attempts.(i) <- attempt;
        spawns := (i, attempt, !now) :: !spawns;
        live.(i) <- Some (launch i attempt ~preempt)
    | S.Kill { shard = i; _ } -> (
        match live.(i) with
        | None -> fail "kill of shard %d, which has no worker" i
        | Some w ->
            if not aborting then begin
              if not (alive w) then fail "kill of shard %d's exited worker" i;
              if inject_kill = Some i && w.attempt = 1 && disk.(i) <> None then
                incr injected
              else if !now -. w.last > stall_s then incr stall_kills
              else
                fail "shard %d killed %.3f s after its last save (stall_s %.2f)"
                  i (!now -. w.last) stall_s
            end;
            if alive w then begin
              w.exit <- Some (!now, S.Signal 9);
              w.saves <- []
            end)
    | S.Abort reason ->
        Array.iteri
          (fun i w ->
            match w with
            | Some w when alive w -> fail "the abort left shard %d running" i
            | _ -> ())
          live;
        outcome := Some (Error reason)
    | S.Merge cks ->
        Array.iteri
          (fun i f -> if not f then fail "merge before shard %d finished" i)
          finished;
        if List.map (fun ck -> (ck.Checkpoint.shard, ck.complete)) cks
           <> List.init shards (fun i -> (i, true))
        then fail "the merge is not one complete checkpoint per shard";
        outcome := Some (Ok ())
  in
  let st = ref (S.init ~shards ~workers ~stall_s ~max_restarts ~inject_kill) in
  let feed ev =
    let next, actions = S.step !st ev in
    st := next;
    if !outcome <> None && actions <> [] then fail "actions after the run ended";
    let aborting = List.exists (function S.Abort _ -> true | _ -> false) actions in
    List.iter (perform ~aborting) actions;
    aborting
  in
  while !outcome = None do
    if !now > 3600. then fail "the run did not end";
    ignore (feed (S.Tick !now));
    for i = 0 to shards - 1 do
      match ((S.shards !st).(i).S.phase, live.(i)) with
      | S.Done _, _ -> ()
      | _ when !outcome <> None -> ()
      | S.Running _, None -> fail "shard %d runs without a worker" i
      | S.Running _, Some w ->
          advance i w;
          (match w.exit with
          | Some (e, status) when e <= !now ->
              live.(i) <- None;
              let complete = completed i = kept.(i) in
              let fatal =
                (not complete) && (status = S.Exit 2 || w.attempt > max_restarts)
              in
              if complete then finished.(i) <- true
              else if not fatal then begin
                incr crashes;
                crashed_at.(i) <- !now
              end;
              if feed (S.Exited { shard = i; status; ck = disk.(i) }) <> fatal then
                fail "shard %d attempt %d ended (%s, complete %b): abort must be %b"
                  i w.attempt (show status) complete fatal
          | _ ->
              ignore (feed (S.Observed { shard = i; ck = disk.(i) }));
              (* the first tick more than stall_s after the beat kills,
                 and a beat is seen at most one tick after its save *)
              if alive w && !now -. w.last > stall_s +. 0.2 then
                fail "shard %d silent for %.3f s and not killed" i (!now -. w.last))
      | S.Pending _, Some _ -> fail "shard %d is pending with a live worker" i
      | S.Pending _, None -> ignore (feed (S.Observed { shard = i; ck = disk.(i) }))
    done;
    now := next_tick !now
  done;
  if S.restarts !st <> !crashes then
    fail "%d restarts counted for %d retried crashes" (S.restarts !st) !crashes;
  if !injected > 1 then fail "the fault was injected %d times" !injected;
  {
    outcome = Option.get !outcome;
    spawns = List.rev !spawns;
    restarts = !crashes;
    stall_kills = !stall_kills;
    injected = !injected;
  }

let fast = { gaps = []; ending = Some (S.Exit 0); linger = 0.001 }

(* every save [gap] seconds apart, exit 0 right after the last *)
let steady gap ~remaining =
  { fast with gaps = List.init remaining (fun _ -> gap) }

let test_backoff_capped () =
  (* one shard whose every worker dies at once: the spawns trace the
     whole schedule, on a 0.05 s tick *)
  let r =
    simulate ~label:"backoff" ~shards:1 ~workers:1 ~stall_s:120.
      ~max_restarts:10 ~inject_kill:None (fun ~shard:_ ~attempt:_ ~remaining:_ ->
        { fast with ending = Some (S.Exit 1); linger = 0. })
  in
  check_bool "the budget ran out" true
    (match r.outcome with
    | Error msg -> contains ~needle:"failed 11 times" msg
    | Ok () -> false);
  let times = List.map (fun (_, _, t) -> t) r.spawns in
  check_int "one launch per attempt" 11 (List.length times);
  check_bool "attempt 1 launches immediately" true (List.hd times = 0.);
  List.iteri
    (fun k (prev, t) ->
      let b = expected_backoff (k + 2) in
      check_bool
        (Printf.sprintf "attempt %d waits %.2f s, within one tick" (k + 2) b)
        true
        (t -. prev >= b -. 1e-9 && t -. prev < b +. 0.05 +. 1e-9))
    (List.combine
       (List.filteri (fun k _ -> k < 10) times)
       (List.tl times))

let merged r = r.outcome = Ok ()

let test_sim_scripted () =
  (* two shards on two workers, the default budget *)
  let sim ?kept ?(stall_s = 120.) ?inject_kill label script =
    simulate ~label ?kept ~shards:2 ~workers:2 ~stall_s ~max_restarts:5
      ~inject_kill script
  in
  (* a hung worker is killed after stall_s and its shard restarted *)
  let r =
    sim ~stall_s:0.3 "hung" (fun ~shard ~attempt ~remaining ->
        if shard = 0 && attempt = 1 then { fast with gaps = [ 0.01 ]; ending = None }
        else steady 0.01 ~remaining)
  in
  check_bool "hung: merged" true (merged r);
  check_int "hung: one stall kill" 1 r.stall_kills;
  check_int "hung: one restart" 1 r.restarts;
  (* exit 1 before the last chunk, then success *)
  let r =
    sim "exit 1" (fun ~shard ~attempt ~remaining ->
        if shard = 1 && attempt = 1 then
          { gaps = [ 0.1 ]; ending = Some (S.Exit 1); linger = 0.1 }
        else steady 0.1 ~remaining)
  in
  check_bool "exit 1 then success: merged, one restart" true
    (merged r && r.restarts = 1 && List.length r.spawns = 3);
  (* exit 2 aborts at once, killing the other worker, with no restart *)
  let r =
    sim "exit 2" (fun ~shard ~attempt:_ ~remaining ->
        if shard = 1 then { fast with ending = Some (S.Exit 2) }
        else steady 1. ~remaining)
  in
  check_bool "exit 2: aborted as a usage error" true
    (match r.outcome with
    | Error msg -> contains ~needle:"exited 2" msg
    | Ok () -> false);
  check_int "exit 2: no restart" 0 r.restarts;
  check_int "exit 2: no relaunch" 2 (List.length r.spawns);
  (* a complete checkpoint is done whatever the exit *)
  List.iter
    (fun status ->
      let r =
        sim "complete" (fun ~shard:_ ~attempt:_ ~remaining ->
            { (steady 0.01 ~remaining) with ending = Some status })
      in
      check_bool
        (Printf.sprintf "complete + %s: merged without a restart" (show status))
        true
        (merged r && r.restarts = 0))
    [ S.Exit 1; S.Exit 2; S.Signal 9 ];
  (* the injected kill lands mid-chunk: the restart resumes after the
     one saved chunk *)
  let r =
    sim ~kept:(fun _ -> 3) ~inject_kill:0 "mid-chunk" (fun ~shard:_ ~attempt:_ ~remaining ->
        { (steady 0.02 ~remaining) with linger = 0.5 })
  in
  check_bool "mid-chunk kill: merged after one restart" true
    (merged r && r.injected = 1 && r.restarts = 1);
  (* an injected shard that exits before any tick: its one-chunk budget
     still leaves an incomplete checkpoint, so it restarts once *)
  let r =
    sim ~inject_kill:1 "fast injected" (fun ~shard:_ ~attempt:_ ~remaining ->
        steady 0.001 ~remaining)
  in
  check_bool "fast injected shard: one restart, never killed" true
    (merged r && r.restarts = 1 && r.injected = 0 && List.length r.spawns = 3);
  (* heartbeats: saves just under stall_s never kill (checkpoint
     seconds are truncated, so only the loop's clock can tell); saves
     one tick and more over stall_s do *)
  List.iter
    (fun stall_s ->
      let run gap =
        sim ~kept:(fun _ -> 8) ~stall_s
          (Printf.sprintf "heartbeat %.2f/%.2f" gap stall_s)
          (fun ~shard:_ ~attempt ~remaining ->
            steady (if attempt = 1 then gap else 0.01) ~remaining)
      in
      let under = run (stall_s -. 0.001) and over = run (stall_s +. 0.15) in
      check_bool
        (Printf.sprintf "saves every %.3f s, stall_s %.2f: no kill" (stall_s -. 0.001)
           stall_s)
        true
        (merged under && under.stall_kills = 0 && under.restarts = 0);
      check_bool
        (Printf.sprintf "saves every %.2f s, stall_s %.2f: killed, restarted"
           (stall_s +. 0.15) stall_s)
        true
        (merged over && over.stall_kills = 2 && over.restarts = 2))
    [ 0.3; 1.0 ]

(* A seeded schedule: a random cluster of 1-5 shards and faults drawn
   per worker launch. *)
let random_schedule seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and float x = Random.State.float rng x in
  let shards = 1 + int 5 in
  let stall_s = [| 0.3; 0.45; 1.0 |].(int 3) in
  let jitter = int 2 = 0 in
  let gap kind () =
    match kind with
    | `Under -> float stall_s
    | `Over -> stall_s *. (1. +. float 0.5)
    | `Fast -> float 0.002
  in
  let saves k kind = List.init k (fun _ -> gap kind ()) in
  let script ~shard:_ ~attempt:_ ~remaining =
    match int 20 with
    | k when k < 7 ->
        let ending = [| S.Exit 0; S.Exit 1; S.Exit 2; S.Signal 9 |].(int 4) in
        { gaps = saves remaining `Under; ending = Some ending; linger = float 0.01 }
    | k when k < 9 -> { fast with gaps = saves remaining `Over }
    | k when k < 12 ->
        let ending = [| S.Exit 1; S.Exit 3; S.Signal 6; S.Signal 9 |].(int 4) in
        { gaps = saves (int (max 1 remaining)) `Under; ending = Some ending; linger = float 0.5 }
    | 12 -> { fast with ending = Some (S.Exit 2) }
    | k when k < 15 -> { gaps = saves (int (remaining + 1)) `Under; ending = None; linger = 0. }
    | _ -> { fast with gaps = saves remaining `Fast }
  in
  simulate ~label:(Printf.sprintf "seed %d" seed)
    ~kept:(fun _ -> 1 + int 4)
    ~done_at_start:(fun _ -> int 8 = 0)
    ~next_tick:(fun t -> t +. 0.05 +. if jitter then float 0.03 else 0.)
    ~shards ~workers:(1 + int (shards + 1)) ~stall_s ~max_restarts:(int 6)
    ~inject_kill:(if int 3 = 0 then Some (int shards) else None)
    script

let test_sim_schedules () =
  let aborted needle r =
    match r.outcome with Error m -> contains ~needle m | Ok () -> false
  in
  (* every path the invariants guard must be taken *)
  let paths =
    [
      ("merge", merged);
      ("abort on exit 2", aborted "exited 2");
      ("exhaust a restart budget", aborted "giving up");
      ("merge after restarts", fun r -> merged r && r.restarts > 0);
      ("kill a stalled worker", fun r -> r.stall_kills > 0);
      ("inject the kill", fun r -> r.injected > 0);
    ]
  in
  let taken = Array.make (List.length paths) 0 in
  for seed = 1 to if heavy then 500_000 else 10_000 do
    let r = random_schedule seed in
    List.iteri (fun k (_, p) -> if p r then taken.(k) <- taken.(k) + 1) paths
  done;
  List.iteri
    (fun k (name, _) -> check_bool ("some schedules " ^ name) true (taken.(k) > 0))
    paths

(* ------------------------------------------------------------------ *)
(* the small-sweep pool bypass                                         *)

let test_small_sweep_bypass () =
  (* n=5 has 21 connected classes, far under the sweep's pool cutoff:
     a wide-jobs run must check every class on the calling domain *)
  let caller = Domain.self () in
  let elsewhere = Atomic.make 0 in
  Sweep.clear_cache ();
  ignore
    (Sweep.run ~cfg:(Run_cfg.make ~jobs:4 ()) ~n:5
       ~check:(fun _ ->
         if Domain.self () <> caller then Atomic.incr elsewhere;
         None)
       ());
  check_int "every class checked on the calling domain" 0 (Atomic.get elsewhere);
  (* ... and so does the enumeration: every pool task of a 4-domain
     sweep, level by level and the representative pass, lands on
     worker 0; the counters match the 1-domain sweep's *)
  let sweep jobs =
    Sweep.clear_cache ();
    let cfg = Run_cfg.make ~jobs () in
    let s = Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:5 in
    let tasks w =
      Lcp_obs.Metrics.counter cfg.Run_cfg.metrics
        (Printf.sprintf "pool/worker%d/tasks" w)
    in
    (s.Sweep.counters, tasks)
  in
  let counters4, tasks = sweep 4 in
  check_bool "tasks recorded on worker 0" true (tasks 0 > 0);
  check_int "no task on workers 1-3" 0 (tasks 1 + tasks 2 + tasks 3);
  check_bool "counters are jobs-invariant through the bypass" true
    (fst (sweep 1) = counters4)

(* ------------------------------------------------------------------ *)
(* subprocess supervision                                              *)

let test_subprocess_matches_unsharded () =
  with_dir @@ fun dir ->
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:6 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Subprocess { bin = lcp_bin };
    }
  in
  let o = run_exn config in
  check_int "one launch per shard" 2 o.Coordinator.launched;
  check_int "no restarts on a clean run" 0 o.Coordinator.restarts;
  check_str "merged report == unsharded report"
    (reference_report ~decoder:"degree-one" ~n:6)
    (Json.to_string_pretty o.Coordinator.report)

let test_kill_restart_recovers () =
  with_dir @@ fun dir ->
  let spawns = ref [] in
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:7 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Subprocess { bin = lcp_bin };
      inject_kill = Some 0;
      on_spawn =
        (fun ~shard ~attempt ~pid:_ -> spawns := (shard, attempt) :: !spawns);
    }
  in
  let o = run_exn config in
  check_int "the injected kill forced exactly one restart" 1
    o.Coordinator.restarts;
  check_bool "shard 0 was attempted at least twice" true
    (List.exists
       (fun r ->
         r.Coordinator.shard = 0 && r.Coordinator.attempts >= 2)
       o.Coordinator.shard_reports);
  check_bool "the restart was observed by on_spawn" true
    (List.mem (0, 2) !spawns);
  check_str "merged report survives the kill byte-for-byte"
    (reference_report ~decoder:"degree-one" ~n:7)
    (Json.to_string_pretty o.Coordinator.report)

(* The injection cannot miss a worker that finishes before the loop
   sees it running: an n=6 shard worker on a handed-down listing exits
   within a few milliseconds, often before the loop's first checkpoint
   read, and whether or not a read finds the target running, its
   one-chunk budget (every n=6 shard spans two 32-class chunks) leaves
   an incomplete checkpoint to restart. The simulator pins the path
   where the target exits before any tick. *)
let test_kill_restart_fast_shard () =
  with_dir @@ fun dir ->
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:6 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Subprocess { bin = lcp_bin };
      inject_kill = Some 1;
    }
  in
  let o = run_exn config in
  check_int "exactly one restart" 1 o.Coordinator.restarts;
  check_int "two shard launches plus the restart" 3 o.Coordinator.launched;
  check_str "merged report survives the injection byte-for-byte"
    (reference_report ~decoder:"degree-one" ~n:6)
    (Json.to_string_pretty o.Coordinator.report)

(* ------------------------------------------------------------------ *)
(* the class listing handed to the workers                             *)

let test_listing_round_trip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "classes.json" in
  for n = 1 to 7 do
    let masks, tallies = Orderly.generate n in
    Sweep.clear_cache ();
    Listing.save ~path (Sweep.listing ~cfg:(Run_cfg.make ~jobs:1 ()) n);
    match Listing.load path with
    | Error e -> Alcotest.fail e
    | Ok l ->
        let what = Printf.sprintf "n=%d" n in
        check_bool (what ^ ": masks") true (l.Listing.masks = masks);
        check_bool (what ^ ": tallies") true (l.Listing.tallies = tallies);
        check_int (what ^ ": header") n l.Listing.n
  done

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A listing file rewritten through [f] on its members and sealed
   again (the digest: MD5 of the other members' compact rendering), so
   only the checks behind the seal can refuse it. *)
let resealed good f =
  match Json.of_string good with
  | Ok (Json.Obj members) ->
      let members = f (List.remove_assoc "digest" members) in
      let digest = Digest.to_hex (Digest.string (Json.to_string (Json.Obj members))) in
      Json.to_string_pretty (Json.Obj (members @ [ ("digest", Json.String digest) ]))
      ^ "\n"
  | _ -> Alcotest.fail "a listing is a JSON object"

let map_member key f members =
  List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) members

let map_masks f =
  map_member "masks" (function
    | Json.List l -> Json.List (f l)
    | _ -> Alcotest.fail "masks is a list")

(* The n=5 shard worker of a coordinated run, on [classes]; its
   checkpoint [ck] starts at class 0, so any run would rewrite it. *)
let with_listing_worker f =
  with_dir @@ fun dir ->
  let good = Filename.concat dir "classes.json" in
  Listing.save ~path:good (Sweep.listing ~cfg:(Run_cfg.make ~jobs:1 ()) 5);
  let ck = Coordinator.shard_path ~dir 0 in
  ignore
    (Lcp.Checker.soundness_sweep ~cfg:(Run_cfg.make ~jobs:1 ())
       (suite_of "degree-one") ~n:5
       ~checkpoint:{ Checkpoint.path = ck; resume = false; tag = "degree-one" });
  (match Checkpoint.load ck with
  | Ok c ->
      Checkpoint.save ~path:ck
        {
          c with
          Checkpoint.completed = 0;
          last_key = -1;
          checked = 0;
          passed = 0;
          violations = 0;
          violating_keys = [];
          labelings = 0;
          complete = false;
        }
  | Error e -> Alcotest.fail e);
  let worker classes =
    run_lcp
      [
        "sweep"; "degree-one"; "-n"; "5"; "-j"; "1"; "--checkpoint"; ck;
        "--resume"; "--classes"; classes;
      ]
  in
  f ~dir ~good ~ck ~worker

(* [worker] on a listing with [content] exits 2 naming the file, prints
   no verdict and leaves the checkpoint byte-unchanged. *)
let refused ~dir ~ck ~worker ?(needle = "") what content =
  let bad = Filename.concat dir "bad.json" in
  write bad content;
  let before = slurp ck in
  let code, out, err = worker bad in
  check_int (what ^ ": exit 2") 2 code;
  check_bool (what ^ ": the error names the file") true (contains ~needle:bad err);
  check_bool (what ^ ": the error says why") true (contains ~needle err);
  check_bool (what ^ ": nothing printed") true (out = "");
  check_bool (what ^ ": checkpoint byte-unchanged") true (slurp ck = before)

let test_bad_listing_refused () =
  with_listing_worker @@ fun ~dir ~good ~ck ~worker ->
  let refused = refused ~dir ~ck ~worker in
  let bytes = slurp good in
  for k = 0 to String.length bytes - 1 do
    refused (Printf.sprintf "truncated at byte %d" k) (String.sub bytes 0 k)
  done;
  (* a digit of the first mask, one bit flipped *)
  let at = String.index_from bytes (Option.get (String.index_opt bytes '[')) '1' in
  refused ~needle:"digest" "one flipped byte"
    (String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor 1) else c) bytes);
  refused ~needle:"masks" "resealed, a mask dropped"
    (resealed bytes (map_masks List.tl));
  refused ~needle:"ascending" "resealed, two masks swapped"
    (resealed bytes
       (map_masks (function a :: b :: rest -> b :: a :: rest | l -> l)));
  let other = Filename.concat dir "other.json" in
  Listing.save ~path:other (Sweep.listing ~cfg:(Run_cfg.make ~jobs:1 ()) 6);
  refused ~needle:"on 6 nodes" "the n=6 listing" (slurp other);
  refused ~needle:"all-graphs" "resealed, \"connected\": false"
    (resealed bytes (map_member "connected" (fun _ -> Json.Bool false)));
  (* the good listing runs: the checkpoint would have shown a run *)
  let before = slurp ck in
  let code, out, _ = worker good in
  check_int "the good listing runs" 0 code;
  check_bool "its verdict is printed" true (contains ~needle:"\"pass\"" out);
  check_bool "and the checkpoint advanced" true (slurp ck <> before)

(* Every worker of a coordinated run reads the coordinator's listing
   and enumerates nothing: a wrapper around the binary gives each
   worker a --metrics-out file, whose class cache must have hit and
   whose spans must hold no enumeration. *)
let test_workers_read_listing () =
  with_dir @@ fun dir ->
  let wrapper = Filename.concat dir "lcp-wrapper.sh" in
  write wrapper
    (Printf.sprintf "#!/bin/sh\nexec %s \"$@\" --metrics-out %s/worker-$$.metrics\n"
       (Filename.quote lcp_bin) (Filename.quote dir));
  Unix.chmod wrapper 0o755;
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:6 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Subprocess { bin = wrapper };
    }
  in
  let o = run_exn config in
  check_str "merged report == unsharded report"
    (reference_report ~decoder:"degree-one" ~n:6)
    (Json.to_string_pretty o.Coordinator.report);
  check_bool "the listing is in the checkpoint dir" true
    (Sys.file_exists (Filename.concat dir "classes.json"));
  let metrics =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".metrics")
  in
  check_int "one metrics file per worker" 2 (List.length metrics);
  List.iter
    (fun f ->
      let m =
        match Json.of_string (slurp (Filename.concat dir f)) with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      let counter name =
        match Result.bind (Json.member "counters" m) (Json.member name) with
        | Ok (Json.Int v) -> v
        | _ -> Alcotest.fail (f ^ ": no counter " ^ name)
      in
      check_int (f ^ ": the class cache hit") 1 (counter "cache_hits");
      check_int (f ^ ": and never missed") 0 (counter "cache_misses");
      check_bool (f ^ ": no enumeration span") false
        (contains ~needle:"enumerate" (Json.to_string m)))
    metrics

(* The accounting gates: a connected class count other than
   A001349(n), or a full class count at the final level other than
   A000088(n), refuses the listing, in memory and from a file whose
   counts were lowered together and resealed. *)
let lower = function Json.Int i -> Json.Int (i - 1) | j -> j

let map_tallies f =
  map_member "tallies" (function Json.Obj ts -> Json.Obj (f ts) | j -> j)

let test_accounting_gate () =
  let masks, t = Orderly.generate 5 in
  List.iter
    (fun (tallies, masks, needle) ->
      match Listing.make ~n:5 tallies masks with
      | Ok _ -> Alcotest.fail ("a listing the gate should refuse was accepted: " ^ needle)
      | Error msg -> check_bool ("the gate names " ^ needle) true (contains ~needle msg))
    [
      ( { t with Orderly.connected_classes = 20; classes = 20 },
        List.tl masks,
        "A001349(5) = 21" );
      ({ t with Orderly.classes_all = 33 }, masks, "A000088(5) = 34");
    ];
  with_listing_worker @@ fun ~dir ~good ~ck ~worker ->
  refused ~dir ~ck ~worker ~needle:"A001349" "resealed, a class short everywhere"
    (resealed (slurp good) (fun members ->
         members |> map_masks List.tl |> map_member "count" lower
         |> map_tallies (fun ts ->
                map_member "classes" lower (map_member "connected_classes" lower ts))));
  refused ~dir ~ck ~worker ~needle:"A000088" "resealed, a class short at the last level"
    (resealed (slurp good) (map_tallies (map_member "classes_all" lower)))

(* A checkpoint that says it covers every graph, disconnected ones
   included, is foreign to every sweep: resealed so that only that
   member differs, both --resume and --merge refuse it with exit 2,
   naming the file (--resume in its error response, --merge on
   stderr), and neither touches it. *)
let test_all_graphs_checkpoint_refused () =
  with_dir @@ fun dir ->
  let good = Filename.concat dir "good.json" in
  ignore
    (Lcp.Checker.soundness_sweep ~cfg:(Run_cfg.make ~jobs:1 ())
       (suite_of "degree-one") ~n:5
       ~checkpoint:{ Checkpoint.path = good; resume = false; tag = "degree-one" });
  let bad = Filename.concat dir "bad.json" in
  write bad
    (resealed (slurp good) (map_member "connected" (fun _ -> Json.Bool false)));
  let before = slurp bad in
  List.iter
    (fun (what, args) ->
      let code, out, err = run_lcp args in
      let said = out ^ err in
      check_int (what ^ ": exit 2") 2 code;
      check_bool (what ^ ": the error names the file") true (contains ~needle:bad said);
      check_bool (what ^ ": the error says why") true
        (contains ~needle:"all-graphs" said);
      check_bool (what ^ ": no verdict") false (contains ~needle:"\"pass\"" said);
      check_bool (what ^ ": checkpoint byte-unchanged") true (slurp bad = before))
    [
      ( "--resume",
        [ "sweep"; "degree-one"; "-n"; "5"; "-j"; "1"; "--checkpoint"; bad; "--resume" ] );
      ("--merge", [ "sweep"; "--merge"; bad ]);
    ]

(* ------------------------------------------------------------------ *)
(* deterministic preemption and the merge refusal                      *)

let test_merge_refuses_incomplete_shard () =
  let path = Filename.temp_file "lcp-test-coord-incomplete" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs:1 () in
  let s =
    Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:6 ~max_chunks:1
      ~checkpoint:{ Checkpoint.path; resume = false; tag = "degree-one" }
  in
  check_bool "preempted run checked only its first chunk" true
    (s.Sweep.counters.Sweep.checked < s.Sweep.counters.Sweep.kept);
  let ck =
    match Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.fail e
  in
  check_bool "checkpoint is valid but incomplete" true
    (not ck.Checkpoint.complete);
  check_bool "heartbeat was stamped" true (ck.Checkpoint.saved_at > 0);
  match Checkpoint.merge [ ck ] with
  | Ok _ -> Alcotest.fail "merging an incomplete shard must fail"
  | Error msg ->
      check_bool "error names the shard" true
        (contains ~needle:"shard 0/1 is incomplete" msg);
      check_bool "error reports the progress" true
        (contains
           ~needle:
             (Printf.sprintf "%d/%d classes done" ck.Checkpoint.completed
                ck.Checkpoint.kept)
           msg);
      check_bool "error carries a real heartbeat timestamp" true
        (contains ~needle:"last checkpoint 2" msg
        && not (contains ~needle:"unknown" msg))

let test_preempted_checkpoint_resumes () =
  let path = Filename.temp_file "lcp-test-coord-resume" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sweep.clear_cache ();
  let cfg = Run_cfg.make ~jobs:1 () in
  ignore
    (Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:6
       ~max_chunks:1
       ~checkpoint:{ Checkpoint.path; resume = false; tag = "degree-one" });
  Sweep.clear_cache ();
  ignore
    (Lcp.Checker.soundness_sweep ~cfg (suite_of "degree-one") ~n:6
       ~checkpoint:{ Checkpoint.path; resume = true; tag = "degree-one" });
  match Checkpoint.load path with
  | Error e -> Alcotest.fail e
  | Ok ck ->
      check_bool "resumed run completed the shard" true ck.Checkpoint.complete;
      check_str "resumed report == unsharded report"
        (reference_report ~decoder:"degree-one" ~n:6)
        (Json.to_string_pretty (Checkpoint.report_json ck))

(* ------------------------------------------------------------------ *)
(* the daemon's coordinated path                                      *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp-test-coord-%d-%d.sock" (Unix.getpid ()) !counter)

let with_server f =
  let socket_path = fresh_socket () in
  let config =
    {
      (Server.default_config ~socket_path) with
      Server.workers = 2;
      limits = { Session.default_limits with Session.shard_bin = lcp_bin };
    }
  in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f socket_path t)

let test_daemon_runs_coordinated_sweep () =
  with_server @@ fun socket _t ->
  let req =
    {
      Protocol.kind =
        Protocol.Sweep
          {
            decoder = "degree-one";
            n = 5;
            strategy = "orderly";
            early_exit = false;
            shards = 2;
          };
      opts = Protocol.default_opts;
    }
  in
  Client.with_connection socket @@ fun c ->
  match Client.request c req with
  | Error e -> Alcotest.fail e
  | Ok resp ->
      check_bool "coordinated request is answered ok" true
        (resp.Protocol.status = Protocol.Done);
      let report =
        match Json.member "report" resp.Protocol.result with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      check_str "daemon's coordinated report == unsharded report"
        (reference_report ~decoder:"degree-one" ~n:5)
        (Json.to_string_pretty report);
      let restarts =
        match Json.member "coordinator" resp.Protocol.result with
        | Ok coord -> (
            match Json.member "restarts" coord with
            | Ok (Json.Int r) -> r
            | _ -> Alcotest.fail "coordinator payload lacks restarts")
        | Error e -> Alcotest.fail e
      in
      check_int "clean daemon run needs no restarts" 0 restarts;
      (* the listing is enumerated under a private cfg: the response
         reports the supervision's counters alone, as before workers
         were handed a listing *)
      let pinned key names =
        check_str (key ^ " object unchanged")
          (Json.to_string
             (Json.Obj (List.map (fun name -> (name, Json.Int 0)) names)))
          (match Json.member key resp.Protocol.result with
          | Ok j -> Json.to_string j
          | Error e -> Alcotest.fail e)
      in
      pinned "counters"
        [
          "labelings_checked"; "orbit_pruned_branches"; "candidates_generated";
          "connected"; "classes"; "dedup_hits"; "kept"; "checked"; "passed";
          "violations";
        ];
      pinned "cache"
        [
          "cache_hits"; "cache_misses"; "eval_cache_hits"; "eval_cache_misses";
          "eval_cache_shared_hits";
        ]

(* A worker that exits 2 (usage error) aborts the run instead of being
   restarted: here every restart would resume the same foreign
   checkpoint and fail the same way. The n=6 run finds an incomplete
   n=7 checkpoint in shard 0's slot; its worker refuses it on --resume
   as a usage error. *)
let test_usage_error_worker_aborts () =
  with_dir @@ fun dir ->
  let path = Coordinator.shard_path ~dir 0 in
  let code =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process lcp_bin
        [|
          lcp_bin; "sweep"; "degree-one"; "-n"; "7"; "-j"; "1"; "--shards"; "2";
          "--shard"; "0"; "--checkpoint"; path; "--max-chunks"; "1";
        |]
        null null null
    in
    Unix.close null;
    snd (Unix.waitpid [] pid)
  in
  check_bool "the preempted n=7 shard worker exited 0" true (code = Unix.WEXITED 0);
  check_bool "it left an incomplete checkpoint" true
    (match Checkpoint.load path with
    | Ok ck -> not ck.Checkpoint.complete
    | Error _ -> false);
  let cfg = Run_cfg.make ~jobs:1 () in
  let config =
    {
      (Coordinator.default_config ~decoder:"degree-one" ~n:6 ~shards:2 ~dir)
      with
      Coordinator.executor = Coordinator.Subprocess { bin = lcp_bin };
    }
  in
  (match leaves_nothing_behind (fun () -> Coordinator.run ~cfg config) with
  | Ok _ -> Alcotest.fail "a foreign checkpoint must abort the run"
  | Error msg ->
      check_bool "the abort names the usage error" true
        (contains ~needle:"exited 2" msg));
  check_int "the usage-error worker was not restarted" 0
    (Lcp_obs.Metrics.counter cfg.Run_cfg.metrics "coord/restarts")

let suite =
  [
    case "backoff: immediate first attempt, doubling, capped"
      test_backoff_capped;
    case "small sweeps bypass the domain pool, counters invariant"
      test_small_sweep_bypass;
    slow_case "subprocess shards merge to the unsharded bytes"
      test_subprocess_matches_unsharded;
    slow_case "injected SIGKILL: restart from checkpoint, identical report"
      test_kill_restart_recovers;
    slow_case "injected fault on a shard shorter than a poll: one restart"
      test_kill_restart_fast_shard;
    slow_case "merge refuses an incomplete shard, naming its heartbeat"
      test_merge_refuses_incomplete_shard;
    slow_case "a preempted checkpoint resumes to the identical report"
      test_preempted_checkpoint_resumes;
    slow_case "daemon runs a coordinated sweep server-side"
      test_daemon_runs_coordinated_sweep;
    slow_case "a worker's usage error aborts the run, no restart"
      test_usage_error_worker_aborts;
    case "sim: hang, exit 1, exit 2, complete exits, mid-chunk and fast \
          injected kills, heartbeats at stall_s 0.3 and 1"
      test_sim_scripted;
    case "sim: 10,000 seeded schedules (500,000 under LCP_HEAVY) keep \
          every supervision invariant"
      test_sim_schedules;
    case "listing: write then read gives Orderly's masks and tallies, n=1..7"
      test_listing_round_trip;
    slow_case "listing: a truncated, edited or foreign one exits 2, checkpoint untouched"
      test_bad_listing_refused;
    slow_case "listing: the A001349 accounting gate refuses a short count, \
               and the A000088 gate a short count at the last level"
      test_accounting_gate;
    slow_case "listing: every coordinated worker reads it, none enumerates"
      test_workers_read_listing;
    slow_case "checkpoint: \"connected\": false is refused by --resume and --merge"
      test_all_graphs_checkpoint_refused;
  ]
