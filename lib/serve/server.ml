(* The lcp daemon: a Unix-domain-socket accept loop, one reader thread
   per connection, and a crew of worker domains draining a bounded
   Jobq.

   The plumbing — accept and per-connection readers — is systhreads on
   the main domain: they block on sockets, which is what threads are
   for, and control requests (which bypass the queue) are answered
   right there. Each worker runs on its own domain, so W workers
   execute W jobs in parallel rather than taking turns on one
   runtime lock. Everything a worker touches is domain-safe: the Jobq
   and flight table are under Sync locks, Metrics is locked, the
   sweep class cache and the Eval_cache lease pool hand state across
   domains under their own locks, and View.Trace lives in Domain.DLS.
   A request asking for [jobs > 1] still fans out over the domain pool
   on top of that, capped by the session's [max_jobs] — so W workers
   can hold up to W × max_jobs domains, and [lcp serve] sizes the
   auto [max_jobs] to keep that product at the core count. *)

module Json = Lcp_obs.Json
module Metrics = Lcp_obs.Metrics
module Sync = Lcp_obs.Sync

(* ------------------------------------------------------------------ *)
(* connection writers                                                  *)

(* Responses for one connection may be written by its reader thread
   (control, rejections) and by any worker domain (job results), so
   every write of a line goes through the connection's mutex. A dead
   peer (EPIPE on write) marks the writer dead and further writes
   become no-ops — the job's result is simply dropped. [alive] is a
   tracked var: only ever read or written under [wlock], and
   [lcp race] holds us to that. *)
type writer = {
  oc : out_channel;
  wlock : Sync.mutex;
  alive : bool Sync.Var.t;
}

let write_line w json =
  Sync.with_lock w.wlock (fun () ->
      if Sync.Var.get w.alive then
        try
          output_string w.oc (Json.to_string json);
          output_char w.oc '\n';
          flush w.oc
        with Sys_error _ | Unix.Unix_error _ -> Sync.Var.set w.alive false)

(* ------------------------------------------------------------------ *)
(* jobs and coalescing                                                 *)

type job = {
  id : int;
  req : Protocol.request;
  cfg : Lcp_obs.Run_cfg.t;
  writer : writer;
  key : string;
}

(* Followers of an in-flight job: same coalesce key, different request
   id (and possibly different connection). Only the primary streams
   progress events; every follower gets the final payload verbatim
   under its own id. *)
type flight = { mutable followers : (int * writer) list }

type config = {
  socket_path : string;
  capacity : int;  (** job-queue bound; [0] refuses every job *)
  workers : int;
  limits : Session.limits;
  version : string;
}

(* Worker domains, the main domain and every worker's pool domains
   share the runtime's fixed domain limit (128 on OCaml 5.1); half of
   it for workers leaves room for the rest. *)
let max_workers = 64

let default_config ~socket_path =
  {
    socket_path;
    capacity = 16;
    workers = 1;
    limits = Session.default_limits;
    version = "dev";
  }

type t = {
  config : config;
  session : Session.t;
  queue : job Jobq.t;
  listen_fd : Unix.file_descr;
  next_id : int Sync.A.t;
  in_flight : (string, flight) Hashtbl.t;
  flight_lock : Sync.mutex;
  flight_guard : unit Sync.Var.t;
      (* shadow var for [in_flight]: touched under [flight_lock] only *)
  shutting_down : bool Sync.A.t;
      (* written by the first shutdown, read at admission — an atomic,
         because the two sides hold different locks (or none) *)
  gauge_lock : Sync.mutex;
      (* makes each queue-depth read and its gauge write one step, so a
         stale depth can never overwrite a newer one *)
  mutable worker_domains : unit Sync.domain_handle list;
  mutable accept_thread : Sync.thread_handle option;
}

let metrics t = t.session.Session.metrics

let fresh_id t = Sync.A.fetch_and_add t.next_id 1

let gauge_depth t =
  Sync.with_lock t.gauge_lock (fun () ->
      Metrics.set_gauge (metrics t) "serve/queue_depth" (Jobq.depth t.queue))

(* Counted before the write, so a client that has read its reply also
   sees it in [serve/requests]. *)
let respond t w (resp : Protocol.response) =
  Metrics.incr (metrics t) "serve/requests";
  write_line w (Protocol.response_to_json resp)

(* ------------------------------------------------------------------ *)
(* worker side                                                         *)

let finish_job t (job : job) status reason result =
  let followers =
    Sync.with_lock t.flight_lock (fun () ->
        Sync.Var.touch t.flight_guard;
        match Hashtbl.find_opt t.in_flight job.key with
        | None -> []
        | Some fl ->
            Hashtbl.remove t.in_flight job.key;
            fl.followers)
  in
  let kind = Protocol.kind_name job.req.Protocol.kind in
  respond t job.writer { Protocol.id = job.id; kind; status; reason; result };
  List.iter
    (fun (id, w) -> respond t w { Protocol.id = id; kind; status; reason; result })
    (List.rev followers)

let worker_loop t =
  let rec loop () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some job ->
        gauge_depth t;
        let status, reason, result =
          let span = "serve/" ^ Protocol.kind_name job.req.Protocol.kind in
          Lcp_obs.Run_cfg.span job.cfg span (fun () ->
              Session.execute t.session job.req job.cfg)
        in
        (match status with
        | Protocol.Expired -> Metrics.incr (metrics t) "serve/expired"
        | _ -> ());
        finish_job t job status reason result;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* admission                                                           *)

let reject t w ~id ~kind reason =
  Metrics.incr (metrics t) "serve/rejected";
  respond t w
    {
      Protocol.id;
      kind = Protocol.kind_name kind;
      status = Protocol.Rejected;
      reason = Some reason;
      result = Json.Null;
    }

(* A job request either joins an in-flight computation with the same
   coalesce key, or is enqueued as a new primary. The decision and the
   registration happen under one lock, so a key observed in flight is
   guaranteed to deliver to its followers. *)
let admit t w (req : Protocol.request) ~key =
  let id = fresh_id t in
  let verdict =
    Sync.with_lock t.flight_lock (fun () ->
        Sync.Var.touch t.flight_guard;
        if Sync.A.get t.shutting_down then `Rejected "shutting_down"
        else
          match Hashtbl.find_opt t.in_flight key with
          | Some fl ->
              fl.followers <- (id, w) :: fl.followers;
              `Coalesced
          | None ->
              let emit body =
                if req.Protocol.opts.Protocol.progress then
                  write_line w
                    (Protocol.event_to_json { Protocol.event_id = id; body })
              in
              let cfg = Session.cfg_of_request t.session req ~emit in
              let job = { id; req; cfg; writer = w; key } in
              if Jobq.try_push t.queue job then begin
                Hashtbl.replace t.in_flight key { followers = [] };
                `Admitted
              end
              else `Rejected "queue_full")
  in
  match verdict with
  | `Admitted -> gauge_depth t
  | `Coalesced -> Metrics.incr (metrics t) "serve/coalesced"
  | `Rejected reason -> reject t w ~id ~kind:req.Protocol.kind reason

(* ------------------------------------------------------------------ *)
(* shutdown                                                            *)

let initiate_shutdown t =
  let first = Sync.A.compare_and_set t.shutting_down false true in
  if first then begin
    Jobq.close t.queue;
    (* wakes the accept loop out of its blocking accept *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* connection side                                                     *)

let handle_control t w (req : Protocol.request) =
  let id = fresh_id t in
  let ok result =
    respond t w
      {
        Protocol.id;
        kind = Protocol.kind_name req.Protocol.kind;
        status = Protocol.Done;
        reason = None;
        result;
      }
  in
  match req.Protocol.kind with
  | Protocol.Ping -> ok (Session.ping_payload t.session)
  | Protocol.Metrics -> ok (Session.metrics_payload t.session)
  | Protocol.Shutdown ->
      ok (Json.Obj [ ("ok", Json.Bool true) ]);
      initiate_shutdown t
  | _ -> assert false

let handle_line t w line =
  match Json.of_string line with
  | Error msg ->
      respond t w
        {
          Protocol.id = fresh_id t;
          kind = "unknown";
          status = Protocol.Failed;
          reason = Some ("bad json: " ^ msg);
          result = Json.Null;
        }
  | Ok json -> (
      match Protocol.request_of_json json with
      | Error msg ->
          respond t w
            {
              Protocol.id = fresh_id t;
              kind = "unknown";
              status = Protocol.Failed;
              reason = Some ("bad request: " ^ msg);
              result = Json.Null;
            }
      | Ok req ->
          if Protocol.is_control req.Protocol.kind then handle_control t w req
          else
            let key = Option.get (Protocol.coalesce_key req) in
            admit t w req ~key)

let connection_loop t fd =
  let ic = Unix.in_channel_of_descr fd in
  let w =
    {
      oc = Unix.out_channel_of_descr fd;
      wlock = Sync.mutex "serve/writer";
      alive = Sync.Var.make "serve/writer.alive" true;
    }
  in
  let rec loop () =
    match input_line ic with
    | line ->
        if String.trim line <> "" then handle_line t w line;
        loop ()
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
  in
  loop ();
  Sync.with_lock w.wlock (fun () -> Sync.Var.set w.alive false);
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        (* fire-and-forget: the handle is dropped, the reader thread
           dies with its connection *)
        ignore (Sync.spawn "serve/conn" (fun () -> connection_loop t fd));
        loop ()
    | exception Unix.Unix_error _ -> ()
    (* listen fd closed: shutdown *)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)

let start config =
  if config.workers < 1 || config.workers > max_workers then
    invalid_arg
      (Printf.sprintf "Server.start: workers must be in 1..%d (got %d)"
         max_workers config.workers);
  (match Unix.stat config.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink config.socket_path
  | _ -> failwith (config.socket_path ^ " exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 16;
  let t =
    {
      config;
      session = Session.create ~limits:config.limits ~version:config.version ();
      queue = Jobq.create ~capacity:config.capacity;
      listen_fd;
      next_id = Sync.A.make "serve/next_id" 1;
      in_flight = Hashtbl.create 16;
      flight_lock = Sync.mutex "serve/flight";
      flight_guard = Sync.Var.make "serve/flight.table" ();
      shutting_down = Sync.A.make "serve/shutting_down" false;
      gauge_lock = Sync.mutex "serve/gauge";
      worker_domains = [];
      accept_thread = None;
    }
  in
  (* share acceptance tables across requests for the daemon's lifetime *)
  Lcp_engine.Eval_cache.set_sharing true;
  t.worker_domains <-
    List.init config.workers (fun _ ->
        Sync.spawn_domain "serve/worker" (fun () -> worker_loop t));
  t.accept_thread <- Some (Sync.spawn "serve/accept" (fun () -> accept_loop t));
  t

let wait t =
  Option.iter Sync.join t.accept_thread;
  List.iter Sync.join_domain t.worker_domains;
  Lcp_engine.Eval_cache.set_sharing false;
  try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ()

let stop t = initiate_shutdown t
