module Json = Lcp_obs.Json
module R = Lcp_obs.Run_cfg
module Sync = Lcp_obs.Sync
module Checkpoint = Lcp_engine.Checkpoint
module Sweep = Lcp_engine.Sweep

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)

type executor =
  | Subprocess of { bin : string }
  | Remote of { sockets : string list }

type config = {
  decoder : string;
  n : int;
  strategy : Sweep.strategy;
  shards : int;
  workers : int;
  jobs : int;
  executor : executor;
  dir : string;
  poll_s : float;
  stall_s : float;
  backoff_base_s : float;
  backoff_max_s : float;
  max_restarts : int;
  inject_kill : int option;
  on_spawn : shard:int -> attempt:int -> pid:int -> unit;
}

let default_config ~decoder ~n ~shards ~dir =
  {
    decoder;
    n;
    strategy = Sweep.Orderly;
    shards;
    workers = shards;
    jobs = 1;
    executor = Subprocess { bin = Sys.executable_name };
    dir;
    poll_s = 0.05;
    stall_s = 120.;
    backoff_base_s = 0.25;
    backoff_max_s = 8.;
    max_restarts = 5;
    inject_kill = None;
    on_spawn = (fun ~shard:_ ~attempt:_ ~pid:_ -> ());
  }

(* Attempt 1 launches immediately; attempt k >= 2 waits
   base * 2^(k-2), capped. Pure, so the cap is unit-testable without
   spawning anything. *)
let backoff_s c ~attempt =
  if attempt <= 1 then 0.
  else min c.backoff_max_s (c.backoff_base_s *. (2. ** float_of_int (attempt - 2)))

let shard_path ~dir i = Filename.concat dir (Printf.sprintf "shard-%d.json" i)

(* ------------------------------------------------------------------ *)
(* the two ways to run a shard                                         *)

(* A shard worker is either a forked [lcp sweep --shard I/K] child
   identified by pid, or a thread farming the shard to a remote daemon
   as a [sweep-shard] request. Both funnel into the same judgement:
   the shard's checkpoint file. A complete checkpoint is success no
   matter how the worker died; anything else is a crash and the shard
   resumes from its last chunk. *)
type handle =
  | Child of int  (* worker pid *)
  | Farm of {
      cell : (Checkpoint.t, string) result option Sync.A.t;
      thread : Sync.thread_handle;
      socket : int;  (* index into the remote socket list *)
    }

type state =
  | Pending of { attempt : int; not_before : float; last_socket : int option }
  | Running of { handle : handle; attempt : int; started : float }
  | Finished of Checkpoint.t

let worker_argv c ~bin i =
  [|
    bin; "sweep"; c.decoder;
    "-n"; string_of_int c.n;
    "-j"; string_of_int c.jobs;
    "--strategy"; Sweep.strategy_name c.strategy;
    "--shards"; string_of_int c.shards;
    "--shard"; string_of_int i;
    "--checkpoint"; shard_path ~dir:c.dir i;
    "--resume";
  |]

let spawn_child c ~devnull ~bin i ~attempt =
  let pid = Unix.create_process bin (worker_argv c ~bin i) devnull devnull devnull in
  c.on_spawn ~shard:i ~attempt ~pid;
  Child pid

let remote_request c i =
  {
    Protocol.kind =
      Protocol.Sweep_shard
        {
          decoder = c.decoder;
          n = c.n;
          strategy = Sweep.strategy_name c.strategy;
          shards = c.shards;
          shard = i;
        };
    opts = { Protocol.default_opts with Protocol.jobs = Some c.jobs };
  }

let spawn_farm c ~sockets i ~attempt ~socket =
  let cell = Sync.A.make "serve/coord.remote_result" None in
  let sock = sockets.(socket) in
  let thread =
    Sync.spawn "serve/coord.remote" (fun () ->
        let res =
          match
            Client.with_connection sock (fun conn ->
                Client.request conn (remote_request c i))
          with
          | Ok resp -> (
              match resp.Protocol.status with
              | Protocol.Done -> (
                  match Json.member "checkpoint" resp.Protocol.result with
                  | Error _ -> Error "sweep-shard response carried no checkpoint"
                  | Ok j -> Checkpoint.of_json j)
              | st ->
                  Error
                    (Printf.sprintf "remote shard %s%s" (Protocol.status_name st)
                       (match resp.Protocol.reason with
                       | Some r -> ": " ^ r
                       | None -> "")))
          | Error msg -> Error msg
          | exception e -> Error (Printexc.to_string e)
        in
        (* persist the remote result where the subprocess path would
           have left it, so merge (and a resumed coordinator) reads
           shard state uniformly from the checkpoint directory *)
        (match res with
        | Ok ck -> Checkpoint.save ~path:(shard_path ~dir:c.dir i) ck
        | Error _ -> ());
        Sync.A.set cell (Some res))
  in
  c.on_spawn ~shard:i ~attempt ~pid:0;
  Farm { cell; thread; socket }

let poll_handle handle path =
  match handle with
  | Child pid -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> `Running
      | _, status -> (
          (* the checkpoint, not the exit status, is the judgement: a
             worker killed after its final chunk still finished its
             shard, and exit 1 just means the shard saw violations *)
          match Checkpoint.load path with
          | Ok ck when ck.Checkpoint.complete -> `Done ck
          | _ -> (
              match status with
              | Unix.WEXITED 2 -> `Fatal "worker exited 2 (usage error)"
              | Unix.WEXITED code ->
                  `Crashed
                    (Printf.sprintf "worker exited %d before finishing its shard"
                       code)
              | Unix.WSIGNALED s ->
                  `Crashed (Printf.sprintf "worker killed by signal %d" s)
              | Unix.WSTOPPED s ->
                  `Crashed (Printf.sprintf "worker stopped by signal %d" s))))
  | Farm f -> (
      match Sync.A.get f.cell with
      | None -> `Running
      | Some res -> (
          Sync.join f.thread;
          match res with
          | Ok ck when ck.Checkpoint.complete -> `Done ck
          | Ok _ -> `Crashed "remote shard returned an incomplete checkpoint"
          | Error msg -> `Crashed msg))

let kill_handle = function
  | Child pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  | Farm _ ->
      (* no remote cancellation in the protocol: the daemon finishes
         the shard and the thread parks its unread result *)
      ()

(* ------------------------------------------------------------------ *)
(* outcome                                                             *)

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
  steals : int;
  shard_reports : shard_report list;
  wall_s : float;
}

let outcome_json o =
  Json.Obj
    [
      ("report", o.report);
      ("launched", Json.Int o.launched);
      ("restarts", Json.Int o.restarts);
      ("steals", Json.Int o.steals);
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

(* ------------------------------------------------------------------ *)
(* supervision loop                                                    *)

let run ?(cfg = R.default) c =
  if c.shards < 1 then invalid_arg "Coordinator.run: shards must be >= 1";
  if c.workers < 1 then invalid_arg "Coordinator.run: workers must be >= 1";
  if c.jobs < 1 then invalid_arg "Coordinator.run: jobs must be >= 1";
  (match c.executor with
  | Remote { sockets = [] } ->
      invalid_arg "Coordinator.run: remote executor needs at least one socket"
  | _ -> ());
  if not (Sys.file_exists c.dir) then Unix.mkdir c.dir 0o755;
  (* materialize the coordinator counters so an uneventful run reports
     the same key set as a stormy one *)
  List.iter
    (fun name -> R.count cfg ~by:0 name)
    [ "coord/shards_launched"; "coord/restarts"; "coord/steals" ];
  R.span cfg "coord" (fun () ->
      let t0 = Lcp_obs.Clock.now_s () in
      let paths = Array.init c.shards (shard_path ~dir:c.dir) in
      let states =
        Array.make c.shards
          (Pending { attempt = 1; not_before = 0.; last_socket = None })
      in
      let attempts = Array.make c.shards 0 in
      let first_started = Array.make c.shards 0. in
      let finished_at = Array.make c.shards 0. in
      let launched = ref 0 and restarts = ref 0 and steals = ref 0 in
      let injected = ref (c.inject_kill = None) in
      let fatal = ref None in
      let devnull =
        match c.executor with
        | Subprocess _ -> Some (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)
        | Remote _ -> None
      in
      let sockets =
        match c.executor with
        | Remote { sockets } -> Array.of_list sockets
        | Subprocess _ -> [||]
      in
      let launch i ~attempt ~last_socket =
        let handle =
          match c.executor with
          | Subprocess { bin } ->
              spawn_child c ~devnull:(Option.get devnull) ~bin i ~attempt
          | Remote _ ->
              (* round-robin placement; a retry moves to the next
                 daemon — a "steal" — so one dead daemon cannot pin a
                 shard forever *)
              let socket =
                match last_socket with
                | None -> i mod Array.length sockets
                | Some prev -> (prev + 1) mod Array.length sockets
              in
              (match last_socket with
              | Some prev when prev <> socket ->
                  incr steals;
                  R.count cfg "coord/steals"
              | _ -> ());
              spawn_farm c ~sockets i ~attempt ~socket
        in
        incr launched;
        R.count cfg "coord/shards_launched";
        attempts.(i) <- attempts.(i) + 1;
        let now = Lcp_obs.Clock.now_s () in
        if first_started.(i) = 0. then first_started.(i) <- now;
        states.(i) <- Running { handle; attempt; started = now }
      in
      let running_count () =
        Array.fold_left
          (fun acc -> function Running _ -> acc + 1 | _ -> acc)
          0 states
      in
      let all_finished () =
        Array.for_all (function Finished _ -> true | _ -> false) states
      in
      let last_line = ref "" in
      while (not (all_finished ())) && !fatal = None do
        let now = Lcp_obs.Clock.now_s () in
        (* reap finished workers; restart crashed ones with backoff *)
        Array.iteri
          (fun i st ->
            match st with
            | Pending _ | Finished _ -> ()
            | Running r -> (
                match poll_handle r.handle paths.(i) with
                | `Running -> (
                    (* deterministic fault injection: SIGKILL the
                       target shard's first attempt once its checkpoint
                       exists (the worker writes one before its first
                       chunk, so this fires early without racing) *)
                    (match (c.inject_kill, r.handle) with
                    | Some k, Child pid
                      when k = i && r.attempt = 1 && (not !injected)
                           && Sys.file_exists paths.(i) ->
                        injected := true;
                        (try Unix.kill pid Sys.sigkill
                         with Unix.Unix_error _ -> ());
                        R.progress cfg
                          (Printf.sprintf
                             "coord: injected SIGKILL into shard %d (pid %d)" i
                             pid)
                    | _ -> ());
                    (* liveness: a worker that neither exits nor
                       heartbeats its checkpoint within stall_s is
                       wedged — kill it and let the reap path restart
                       it from its last chunk *)
                    if now -. r.started > c.stall_s then
                      let hb =
                        match Checkpoint.load paths.(i) with
                        | Ok ck -> ck.Checkpoint.saved_at
                        | Error _ -> 0
                      in
                      if hb = 0 || now -. float_of_int hb > c.stall_s then (
                        match r.handle with
                        | Child pid ->
                            R.progress cfg
                              (Printf.sprintf
                                 "coord: shard %d stalled (last heartbeat %s); \
                                  killing pid %d"
                                 i
                                 (Checkpoint.timestamp_utc hb)
                                 pid);
                            (try Unix.kill pid Sys.sigkill
                             with Unix.Unix_error _ -> ())
                        | Farm _ -> ()))
                | `Done ck ->
                    finished_at.(i) <- Lcp_obs.Clock.now_s ();
                    states.(i) <- Finished ck
                | `Fatal msg ->
                    fatal := Some (Printf.sprintf "shard %d: %s" i msg)
                | `Crashed msg ->
                    if r.attempt > c.max_restarts then
                      fatal :=
                        Some
                          (Printf.sprintf
                             "shard %d failed %d times, giving up (last: %s)" i
                             r.attempt msg)
                    else begin
                      incr restarts;
                      R.count cfg "coord/restarts";
                      let attempt = r.attempt + 1 in
                      let wait = backoff_s c ~attempt in
                      R.progress cfg
                        (Printf.sprintf
                           "coord: shard %d: %s; restart %d/%d in %.2fs" i msg
                           (attempt - 1) c.max_restarts wait);
                      let last_socket =
                        match r.handle with
                        | Farm f -> Some f.socket
                        | Child _ -> None
                      in
                      states.(i) <-
                        Pending { attempt; not_before = now +. wait; last_socket }
                    end))
          states;
        (* fill free worker slots with due pending shards *)
        (if !fatal = None then
           let slots = ref (c.workers - running_count ()) in
           Array.iteri
             (fun i st ->
               match st with
               | Pending p when !slots > 0 && p.not_before <= now ->
                   decr slots;
                   launch i ~attempt:p.attempt ~last_socket:p.last_socket
               | _ -> ())
             states);
        (* aggregate progress, read back from the checkpoint files the
           workers heartbeat into *)
        let done_classes = ref 0 and shards_done = ref 0 in
        let total = ref 0 and have_total = ref true in
        Array.iteri
          (fun i st ->
            let note ck =
              done_classes := !done_classes + ck.Checkpoint.completed;
              total := !total + ck.Checkpoint.kept;
              R.set_gauge cfg
                (Printf.sprintf "coord/shard%d/completed" i)
                ck.Checkpoint.completed
            in
            match st with
            | Finished ck ->
                incr shards_done;
                note ck
            | _ -> (
                match Checkpoint.load paths.(i) with
                | Ok ck -> note ck
                | Error _ -> have_total := false))
          states;
        R.set_gauge cfg "coord/classes_done" !done_classes;
        R.set_gauge cfg "coord/shards_done" !shards_done;
        Array.iteri
          (fun i a ->
            if a > 0 then
              R.set_gauge cfg (Printf.sprintf "coord/shard%d/attempts" i) a)
          attempts;
        let line =
          if !have_total then
            Printf.sprintf "coord: %d/%d classes, %d/%d shards done"
              !done_classes !total !shards_done c.shards
          else
            Printf.sprintf "coord: %d classes done, %d/%d shards done"
              !done_classes !shards_done c.shards
        in
        if line <> !last_line then begin
          last_line := line;
          R.progress cfg line
        end;
        if (not (all_finished ())) && !fatal = None then Unix.sleepf c.poll_s
      done;
      (match !fatal with
      | Some _ ->
          Array.iter
            (function Running r -> kill_handle r.handle | _ -> ())
            states
      | None -> ());
      (match devnull with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      match !fatal with
      | Some msg -> Error msg
      | None -> (
          let cks =
            Array.to_list
              (Array.map
                 (function Finished ck -> ck | _ -> assert false)
                 states)
          in
          match Checkpoint.merge cks with
          | Error msg -> Error ("coordinator merge: " ^ msg)
          | Ok merged ->
              let shard_reports =
                List.init c.shards (fun i ->
                    {
                      shard = i;
                      attempts = attempts.(i);
                      kept =
                        (match states.(i) with
                        | Finished ck -> ck.Checkpoint.kept
                        | _ -> 0);
                      wall_s =
                        (if finished_at.(i) > 0. then
                           finished_at.(i) -. first_started.(i)
                         else 0.);
                    })
              in
              let wall_s = Lcp_obs.Clock.now_s () -. t0 in
              R.progress cfg
                (Printf.sprintf
                   "coord: merged %d shards: %d classes, %d violations" c.shards
                   merged.Checkpoint.kept merged.Checkpoint.violations);
              Ok
                {
                  merged;
                  report = Checkpoint.report_json merged;
                  launched = !launched;
                  restarts = !restarts;
                  steals = !steals;
                  shard_reports;
                  wall_s;
                }))
