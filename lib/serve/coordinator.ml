module Json = Lcp_obs.Json
module R = Lcp_obs.Run_cfg
module Checkpoint = Lcp_engine.Checkpoint
module Listing = Lcp_engine.Listing
module Sweep = Lcp_engine.Sweep

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
let classes_path ~dir = Filename.concat dir "classes.json"

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
      "--classes"; classes_path ~dir:c.dir;
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

(* The workers' stdout pipes, one read end per running worker. A
   worker never writes much (its response object, once), but its exit
   closes the write end, so EOF on the read end wakes the loop the
   moment a worker exits instead of at the next tick. *)
type pipes = { fds : Unix.file_descr option array; hung_up : bool array }

let close_pipe p i =
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    p.fds.(i);
  p.fds.(i) <- None

(* Sleep until a worker writes or exits, or [timeout] passes; drain and
   discard what was written, and mark the pipes at EOF as hung up. *)
let await p ~timeout =
  let open_fds = List.filter_map Fun.id (Array.to_list p.fds) in
  match Unix.select open_fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      let buf = Bytes.create 4096 in
      Array.iteri
        (fun i fd ->
          match fd with
          | Some fd when List.mem fd readable ->
              if Unix.read fd buf 0 (Bytes.length buf) = 0 then begin
                close_pipe p i;
                p.hung_up.(i) <- true
              end
          | _ -> ())
        p.fds

let run ?(cfg = R.default) c =
  if c.shards < 1 then invalid_arg "Coordinator.run: shards must be >= 1";
  if c.workers < 1 then invalid_arg "Coordinator.run: workers must be >= 1";
  if c.jobs < 1 then invalid_arg "Coordinator.run: jobs must be >= 1";
  if not (Sys.file_exists c.dir) then Unix.mkdir c.dir 0o755;
  R.span cfg "coord" (fun () ->
      let t0 = Lcp_obs.Clock.now_s () in
      (* one listing for every worker, enumerated on the cores they are
         about to use (no more domains than the machine has cores),
         under a private cfg so the caller's counters stay those of the
         supervision alone *)
      let jobs = min (c.workers * c.jobs) (Lcp_engine.Pool.default_jobs ()) in
      R.span cfg "listing" (fun () ->
          Listing.save ~path:(classes_path ~dir:c.dir)
            (Sweep.listing ~cfg:(R.make ~jobs ()) c.n));
      let devnull =
        Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0
      in
      let p =
        { fds = Array.make c.shards None; hung_up = Array.make c.shards false }
      in
      Fun.protect ~finally:(fun () ->
          Array.iteri (fun i _ -> close_pipe p i) p.fds;
          try Unix.close devnull with Unix.Unix_error _ -> ())
      @@ fun () ->
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
            let rd, wr = Unix.pipe ~cloexec:true () in
            (match Unix.create_process bin argv devnull wr devnull with
            | pid -> pids.(shard) <- pid
            | exception e ->
                Unix.close rd;
                Unix.close wr;
                raise e);
            Unix.close wr;
            p.fds.(shard) <- Some rd;
            p.hung_up.(shard) <- false;
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
              let exited status =
                close_pipe p i;
                S.Exited { shard = i; status; ck = ck () }
              in
              (* a hung-up pipe means the worker is exiting: wait for it *)
              let flags = if p.hung_up.(i) then [] else [ Unix.WNOHANG ] in
              feed
                (match phase with
                | S.Running _ -> (
                    match Unix.waitpid flags pids.(i) with
                    | 0, _ -> S.Observed { shard = i; ck = ck () }
                    | _, Unix.WEXITED code -> exited (S.Exit code)
                    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> exited (S.Signal s))
                | _ -> S.Observed { shard = i; ck = ck () })
        done;
        report_progress cfg !st ~last_line;
        if !result = None then await p ~timeout:poll_s
      done;
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
