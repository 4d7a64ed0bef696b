module Json = Lcp_obs.Json
module R = Lcp_obs.Run_cfg
module Checkpoint = Lcp_engine.Checkpoint

type executor = Subprocess of { bin : string }

type config = {
  decoder : string;
  n : int;
  shards : int;
  workers : int;
  jobs : int;
  executor : executor;
  dir : string;
  stall_s : float;
  max_restarts : int;
  inject_kill : int option;
  on_spawn : shard:int -> attempt:int -> pid:int -> unit;
}

let default_config ~decoder ~n ~shards ~dir =
  {
    decoder;
    n;
    shards;
    workers = shards;
    jobs = 1;
    executor = Subprocess { bin = Sys.executable_name };
    dir;
    stall_s = 120.;
    max_restarts = 5;
    inject_kill = None;
    on_spawn = (fun ~shard:_ ~attempt:_ ~pid:_ -> ());
  }

let poll_s = 0.05

let shard_path ~dir i = Filename.concat dir (Printf.sprintf "shard-%d.json" i)

(* A preempted worker ([--max-chunks 1], the injected fault) cannot
   finish a shard of two or more chunks however fast it runs, so the
   shard is restarted exactly once whether or not a poll kills it. *)
let worker_argv c ~bin i ~preempt =
  Array.append
    [|
      bin; "sweep"; c.decoder;
      "-n"; string_of_int c.n;
      "-j"; string_of_int c.jobs;
      "--shards"; string_of_int c.shards;
      "--shard"; string_of_int i;
      "--checkpoint"; shard_path ~dir:c.dir i;
      "--resume";
    |]
    (if preempt then [| "--max-chunks"; "1" |] else [||])

type shard_report = {
  shard : int;
  attempts : int;
  kept : int;
  wall_s : float;
}

type outcome = {
  merged : Checkpoint.t;
  report : Json.t;
  launched : int;
  restarts : int;
  shard_reports : shard_report list;
  wall_s : float;
}

let outcome_json o =
  Json.Obj
    [
      ("report", o.report);
      ("launched", Json.Int o.launched);
      ("restarts", Json.Int o.restarts);
      ( "shards",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("shard", Json.Int s.shard);
                   ("attempts", Json.Int s.attempts);
                   ("kept", Json.Int s.kept);
                   ("wall_ms", Json.Int (int_of_float (s.wall_s *. 1000.)));
                 ])
             o.shard_reports) );
      ("wall_ms", Json.Int (int_of_float (o.wall_s *. 1000.)));
    ]

module S = Supervise

(* Gauges and the aggregate progress line, read off the state; the
   class total is unknown until every shard has a checkpoint. *)
let report_progress cfg (st : S.t) ~last_line =
  let gauge name v = R.set_gauge cfg ("coord/" ^ name) v in
  let classes = ref 0 and total = ref (Some 0) and finished = ref 0 in
  Array.iteri
    (fun i (s : S.shard) ->
      (match s.seen with
      | Some ck ->
          gauge (Printf.sprintf "shard%d/completed" i) ck.Checkpoint.completed;
          classes := !classes + ck.completed;
          total := Option.map (( + ) ck.kept) !total
      | None -> total := None);
      if s.attempts > 0 then gauge (Printf.sprintf "shard%d/attempts" i) s.attempts;
      match s.phase with S.Done _ -> incr finished | _ -> ())
    (S.shards st);
  gauge "classes_done" !classes;
  gauge "shards_done" !finished;
  let line =
    Printf.sprintf "coord: %d/%s classes, %d/%d shards done, %d restarts"
      !classes
      (Option.fold ~none:"?" ~some:string_of_int !total)
      !finished (Array.length (S.shards st)) (S.restarts st)
  in
  if line <> !last_line then begin
    last_line := line;
    R.progress cfg line
  end

let run ?(cfg = R.default) c =
  if c.shards < 1 then invalid_arg "Coordinator.run: shards must be >= 1";
  if c.workers < 1 then invalid_arg "Coordinator.run: workers must be >= 1";
  if c.jobs < 1 then invalid_arg "Coordinator.run: jobs must be >= 1";
  if not (Sys.file_exists c.dir) then Unix.mkdir c.dir 0o755;
  R.span cfg "coord" (fun () ->
      let t0 = Lcp_obs.Clock.now_s () in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let (Subprocess { bin }) = c.executor in
      let pids = Array.make c.shards 0 in
      let st =
        ref
          (S.init ~shards:c.shards ~workers:c.workers ~stall_s:c.stall_s
             ~max_restarts:c.max_restarts ~inject_kill:c.inject_kill)
      in
      let result = ref None and last_line = ref "" in
      let shard i = (S.shards !st).(i) in
      let perform = function
        | S.Spawn { shard; attempt; preempt } ->
            let argv = worker_argv c ~bin shard ~preempt in
            pids.(shard) <- Unix.create_process bin argv devnull devnull devnull;
            c.on_spawn ~shard ~attempt ~pid:pids.(shard)
        | S.Kill { shard; reason } -> (
            R.progress cfg
              (Printf.sprintf "coord: shard %d: %s; killing pid %d" shard
                 reason pids.(shard));
            try Unix.kill pids.(shard) Sys.sigkill with Unix.Unix_error _ -> ())
        | S.Abort reason ->
            (* reap the workers the abort killed *)
            Array.iteri
              (fun i pid ->
                if S.is_running (shard i) then
                  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
              pids;
            result := Some (Error reason)
        | S.Merge cks ->
            let merged = Checkpoint.merge cks in
            result := Some (Result.map_error (( ^ ) "coordinator merge: ") merged)
      in
      let feed ev =
        let next, actions = S.step !st ev in
        st := next;
        List.iter perform actions
      in
      while !result = None do
        feed (S.Tick (Lcp_obs.Clock.now_s ()));
        for i = 0 to c.shards - 1 do
          match (shard i).phase with
          | S.Done _ -> ()
          | _ when !result <> None -> ()
          | phase ->
              (* reap before reading: a worker that saves its last
                 chunk and exits in between is judged by that save *)
              let path = shard_path ~dir:c.dir i in
              let ck () = Result.to_option (Checkpoint.load path) in
              let exited status = S.Exited { shard = i; status; ck = ck () } in
              feed
                (match phase with
                | S.Running _ -> (
                    match Unix.waitpid [ Unix.WNOHANG ] pids.(i) with
                    | 0, _ -> S.Observed { shard = i; ck = ck () }
                    | _, Unix.WEXITED code -> exited (S.Exit code)
                    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> exited (S.Signal s))
                | _ -> S.Observed { shard = i; ck = ck () })
        done;
        report_progress cfg !st ~last_line;
        if !result = None then Unix.sleepf poll_s
      done;
      (try Unix.close devnull with Unix.Unix_error _ -> ());
      let report i =
        let s = shard i in
        let wall_s =
          match s.phase with S.Done { at } -> at -. s.first_start | _ -> 0.
        in
        let kept = Option.fold ~none:0 ~some:(fun ck -> ck.Checkpoint.kept) s.seen in
        { shard = i; attempts = s.attempts; kept; wall_s }
      in
      let shard_reports = List.init c.shards report in
      let launched = List.fold_left (fun a r -> a + r.attempts) 0 shard_reports in
      (* counted even when 0, so every run reports the same key set *)
      R.count cfg ~by:launched "coord/shards_launched";
      R.count cfg ~by:(S.restarts !st) "coord/restarts";
      Option.get !result
      |> Result.map (fun merged ->
             R.progress cfg
               (Printf.sprintf
                  "coord: merged %d shards: %d classes, %d violations" c.shards
                  merged.Checkpoint.kept merged.Checkpoint.violations);
             {
               merged;
               report = Checkpoint.report_json merged;
               launched;
               restarts = S.restarts !st;
               shard_reports;
               wall_s = Lcp_obs.Clock.now_s () -. t0;
             }))
