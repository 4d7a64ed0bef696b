(* serve-mix: a child `lcp serve --workers 2 --capacity 16` driven in a
   closed loop. A cold pass sends each distinct request once on one
   connection, on each of 5 fresh daemons in turn; then, on the last,
   warm passes of a seeded, shuffled mix of check and sweep requests
   run on 2 connections, each caller waiting for its reply before
   sending the next request. *)

open Common
module Protocol = Lcp_serve.Protocol
module Client = Lcp_serve.Client
module Session = Lcp_serve.Session
module Json = Lcp_obs.Json

(* Registry decoders whose warm n=6 sweep costs 5-35 ms in process, so
   no single request dominates a pass (an even-cycle n=6 sweep takes
   about 300 ms warm). *)
let decoders = [ "trivial2"; "degree-one"; "hidden-leaf2"; "hidden-leaf3"; "edge-bit" ]

(* at most 7 nodes; the second half is non-bipartite, so those checks
   run the exhaustive soundness search *)
let graphs =
  [ "path:6"; "cycle:6"; "star:6"; "grid:2x3"; "cycle:5"; "cycle:7"; "complete:4"; "theta:2,2,3" ]

let connections = 2

(* A request with the default options, as `lcp client` sends it: the
   daemon runs each job on one domain. *)
let request_of kind = { Protocol.kind; opts = Protocol.default_opts }

let checks =
  List.concat_map
    (fun decoder -> List.map (fun graph -> request_of (Protocol.Check { decoder; graph })) graphs)
    decoders

(* Sweep orders: n = 5 and 6 (4 and 5 in the quick run). *)
let sweeps (sc : scale) =
  List.concat_map
    (fun decoder ->
      List.map
        (fun n ->
          request_of
            (Protocol.Sweep { decoder; n; strategy = "orderly"; early_exit = false; shards = 1 }))
        (if sc.quick then [ 4; 5 ] else [ 5; 6 ]))
    decoders

(* The distinct requests: checks first, then sweeps. *)
let distinct sc = Array.of_list (checks @ sweeps sc)
let n_checks = List.length checks
let is_check i = i < n_checks

(* Copies of each distinct request per warm pass: 1,000 checks and 100
   sweeps, so 10 checks lie beyond the pass's p99 and 10 sweeps beyond
   its p90 (200 requests in the quick run). *)
let per_pass (sc : scale) = if sc.quick then (4, 4) else (25, 10)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let pass_order (sc : scale) pass =
  let c, s = per_pass sc in
  let idx =
    Array.concat
      [
        Array.concat (List.init c (fun _ -> Array.init n_checks Fun.id));
        Array.concat
          (List.init s (fun _ -> Array.init (List.length (sweeps sc)) (( + ) n_checks)));
      ]
  in
  shuffle (Random.State.make [| sc.seed; pass |]) idx

(* A result payload without its cache-temperature and timing fields:
   the bytes that must not depend on where or when a request ran. *)
let det (result : Json.t) =
  match result with
  | Json.Obj fields ->
      Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "cache" && k <> "wall_ms") fields))
  | j -> Json.to_string j

(* ---- the daemon ----------------------------------------------------- *)

type daemon = { pid : int; sock : string; mutable alive : bool }

let request c req =
  match Client.request c req with
  | r -> r
  | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) -> Error "connection failed"

let start ~bin =
  let dir = fresh_dir "serve" in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    spawn [| bin; "serve"; "--socket"; sock; "--workers"; "2"; "--capacity"; "16" |]
  in
  let d = { pid; sock; alive = true } in
  (* ready = the first ping answered *)
  let deadline = now () +. 20. in
  let rec ping () =
    match Client.with_connection sock (fun c -> request c (request_of Protocol.Ping)) with
    | Ok { Protocol.status = Protocol.Done; _ } -> d
    | _ | (exception Unix.Unix_error _) ->
        if now () > deadline then failwith "lcp serve did not answer a ping"
        else begin
          Thread.delay 0.0002;
          ping ()
        end
  in
  ping ()

let stop d =
  if d.alive then begin
    d.alive <- false;
    (try Client.with_connection d.sock (fun c -> ignore (request c (request_of Protocol.Shutdown)))
     with Unix.Unix_error _ -> ());
    let deadline = now () +. 20. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
          if now () > deadline then begin
            Unix.kill d.pid Sys.sigkill;
            ignore (waitpid_retry d.pid)
          end
          else begin
            Thread.delay 0.01;
            wait ()
          end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  end

let with_daemon ~bin f =
  let d = start ~bin in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

(* ---- passes --------------------------------------------------------- *)

type reply = { latency : float; response : Protocol.response option  (** None = not ok *) }

let no_reply = { latency = 0.; response = None }

let reply_of t0 = function
  | Ok ({ Protocol.status = Protocol.Done; _ } as r) -> { latency = now () -. t0; response = Some r }
  | Ok _ | Error _ -> { latency = now () -. t0; response = None }

let det_of r = Option.map (fun (x : Protocol.response) -> det x.Protocol.result) r.response

(* Each distinct request once, in a seeded order, on one connection:
   (wall, replies indexed by distinct request). *)
let cold_pass (sc : scale) reqs d =
  let order = shuffle (Random.State.make [| sc.seed; -1 |]) (Array.init (Array.length reqs) Fun.id) in
  let replies = Array.make (Array.length reqs) no_reply in
  let (), wall =
    timed (fun () ->
        Client.with_connection d.sock (fun c ->
            Array.iter
              (fun i ->
                let t0 = now () in
                replies.(i) <- reply_of t0 (request c reqs.(i)))
              order))
  in
  (wall, replies)

(* One warm pass on [connections] connections: (wall, replies in pass
   order). *)
let warm_pass reqs d order =
  let len = Array.length order in
  let replies = Array.make len no_reply in
  let next = Atomic.make 0 in
  let caller c () =
    let rec loop () =
      let k = Atomic.fetch_and_add next 1 in
      if k < len then begin
        let t0 = now () in
        replies.(k) <- reply_of t0 (request c reqs.(order.(k)));
        loop ()
      end
    in
    loop ()
  in
  let conns = List.init connections (fun _ -> Client.connect d.sock) in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close conns)
    (fun () ->
      let t0 = now () in
      List.iter Thread.join (List.map (fun c -> Thread.create (caller c) ()) conns);
      (now () -. t0, replies))

let ms_percentile replies order pick p =
  let lat =
    Array.of_list
      (List.filter_map Fun.id
         (Array.to_list
            (Array.mapi (fun k r -> if pick order.(k) then Some (r.latency *. 1e3) else None) replies)))
  in
  percentile lat p

(* Every reply must be ok and equal to the reference payload for its
   request; returns the number of replies that were not ok. *)
let verify g ~what reqs reference order replies =
  let failed = ref 0 in
  Array.iteri
    (fun k r ->
      let i = order.(k) in
      match det_of r with
      | None -> incr failed
      | s ->
          gate g (s = reference.(i)) "serve: %s reply to %s differs from reference" what
            (Json.to_string (Protocol.request_to_json reqs.(i))))
    replies;
  !failed

(* The cold replies are the reference; each must equal the in-process
   Session.execute payload for the same request. *)
let check_session g reqs reference session =
  Array.iteri
    (fun i (s, _) ->
      gate g (s <> None && s = reference.(i)) "serve: cold reply to %s differs from Session.execute"
        (Json.to_string (Protocol.request_to_json reqs.(i))))
    session

(* In-process Session.execute of every distinct request, on fresh
   process-wide caches with table sharing on, as in the daemon:
   (det payloads, per-request seconds). *)
let session_cold reqs =
  Lcp_engine.Sweep.clear_cache ();
  Lcp_engine.Eval_cache.set_sharing true;
  Lcp_engine.Eval_cache.clear_shared ();
  let t = Session.create () in
  let exec req =
    let cfg = Session.cfg_of_request t req ~emit:ignore in
    let (st, _, result), s = timed (fun () -> Session.execute t req cfg) in
    ((if st = Protocol.Done then Some (det result) else None), s)
  in
  (exec, Array.map exec reqs)

let daemon_counters d =
  match Client.with_connection d.sock (fun c -> request c (request_of Protocol.Metrics)) with
  | Ok { Protocol.status = Protocol.Done; result; _ } -> (
      match Lcp_obs.Metrics.of_json result with
      | Ok m -> fun name -> fi (Lcp_obs.Metrics.counter m name)
      | Error _ -> fun _ -> nan)
  | _ -> fun _ -> nan

(* Cold passes per run, each on a fresh daemon: a single pass varies by
   up to a third from run to run. The last daemon serves the warm
   passes. *)
let cold_daemons (sc : scale) = if sc.quick then 1 else 5

let run (sc : scale) ~bin =
  let g = gates () in
  let reqs = distinct sc in
  let earlier = List.init (cold_daemons sc - 1) (fun _ -> with_daemon ~bin (cold_pass sc reqs)) in
  let earlier_s = sum (List.map fst earlier) in
  let cold_s, cold, passes, peak =
    with_daemon ~bin (fun d ->
        let cold_s, cold = cold_pass sc reqs d in
        let passes =
          let k = ref 0 in
          reps sc ~seconds:(Float.max 0. (sc.seconds -. earlier_s -. cold_s)) (fun () ->
              incr k;
              let order = pass_order sc !k in
              let wall, replies = warm_pass reqs d order in
              (order, wall, replies))
        in
        (cold_s, cold, passes, Option.value ~default:nan (vmhwm_mb (string_of_int d.pid))))
  in
  let reference = Array.map det_of cold in
  check_session g reqs reference (snd (session_cold reqs));
  let cold_failed = Array.fold_left (fun a r -> if r.response = None then a + 1 else a) 0 cold in
  let identity = Array.init (Array.length reqs) Fun.id in
  let earlier_failed =
    List.fold_left (fun a (_, replies) -> a + verify g ~what:"cold" reqs reference identity replies) 0 earlier
  in
  let warm_failed =
    List.fold_left
      (fun a (order, _, replies) -> a + verify g ~what:"warm" reqs reference order replies)
      0 passes
  in
  let attempted =
    (cold_daemons sc * Array.length reqs)
    + List.fold_left (fun a (o, _, _) -> a + Array.length o) 0 passes
  in
  let failed = cold_failed + earlier_failed + warm_failed in
  let per f = List.map f passes in
  let pct pick p = per (fun (order, _, replies) -> ms_percentile replies order pick p) in
  let is_sweep i = not (is_check i) in
  {
    rows =
      [
        row "wall_s" "s" (per (fun (_, w, _) -> w));
        one "peak_rss_mb" "MB" peak;
        row "check_p50_ms" "ms" (pct is_check 0.50);
        row "check_p99_ms" "ms" (pct is_check 0.99);
        row "sweep_p50_ms" "ms" (pct is_sweep 0.50);
        row "sweep_p90_ms" "ms" (pct is_sweep 0.90);
        row "throughput_rps" "1/s" (per (fun (o, w, _) -> fi (Array.length o) /. w));
        row "cold_s" "s" (List.map fst earlier @ [ cold_s ]);
        one "fail_frac" "ratio" (safe_div (fi failed) (fi attempted));
      ];
    attempted;
    failed;
    errors = !g;
  }

(* ---- traced pass --------------------------------------------------- *)

(* Mean encode + decode time of one message, over every request of the
   mix and its cold response. *)
let codec_us reqs cold =
  let iters = 20 in
  let msgs = ref 0 in
  let (), s =
    timed (fun () ->
        for _ = 1 to iters do
          Array.iteri
            (fun i r ->
              let rq = Json.to_string (Protocol.request_to_json reqs.(i)) in
              ignore (Result.map Protocol.request_of_json (Json.of_string rq));
              incr msgs;
              Option.iter
                (fun resp ->
                  let rs = Json.to_string (Protocol.response_to_json resp) in
                  ignore (Result.map Protocol.response_of_json (Json.of_string rs));
                  incr msgs)
                r.response)
            cold
        done)
  in
  safe_div (s *. 1e6) (fi !msgs)

let trace (sc : scale) ~bin =
  let g = gates () in
  let reqs = distinct sc in
  let order = pass_order sc 1 in
  let cold, (wall, replies), daemon_cpu, ping_ms, counter =
    with_daemon ~bin (fun d ->
        let _, cold = cold_pass sc reqs d in
        let cpu0 = proc_cpu_s d.pid in
        let pass = warm_pass reqs d order in
        let daemon_cpu = proc_cpu_s d.pid -. cpu0 in
        let pings =
          Client.with_connection d.sock (fun c ->
              Array.init 200 (fun _ ->
                  let t0 = now () in
                  ignore (request c (request_of Protocol.Ping));
                  (now () -. t0) *. 1e3))
        in
        (cold, pass, daemon_cpu, percentile pings 0.5, daemon_counters d))
  in
  let reference = Array.map det_of cold in
  let failed = verify g ~what:"traced warm" reqs reference order replies in
  let exec, session = session_cold reqs in
  check_session g reqs reference session;
  let session_cold_s = sum (Array.to_list (Array.map snd session)) in
  (* the warm pass again, in process, on the now warm state *)
  let sess = Array.map (fun i -> snd (exec reqs.(i))) order in
  let sess_ms pick =
    let l = List.filter_map Fun.id (Array.to_list (Array.mapi (fun k s -> if pick order.(k) then Some (s *. 1e3) else None) sess)) in
    percentile (Array.of_list l) 0.5
  in
  let sum_lat = sum (Array.to_list (Array.map (fun r -> r.latency) replies)) in
  let sum_sess = sum (Array.to_list sess) in
  let c = fi connections in
  let check_p50 = ms_percentile replies order is_check 0.5 in
  let session_check = sess_ms is_check in
  {
    rows =
      Layers.shares ~wall [ ("session", sum_sess /. c); ("serve", (sum_lat -. sum_sess) /. c) ]
      @ [
          one "serve.daemon_cpu_frac" "ratio" (safe_div daemon_cpu wall);
          one "serve.ping_p50_ms" "ms" ping_ms;
          one "protocol.codec_us" "us" (codec_us reqs cold);
          one "session.check_p50_ms" "ms" session_check;
          one "session.sweep_p50_ms" "ms" (sess_ms (fun i -> not (is_check i)));
          one "session.cold_s" "s" session_cold_s;
          one "serve.dispatch_p50_ms" "ms" (check_p50 -. session_check);
          one "serve.coalesced" "count" (counter "serve/coalesced");
          one "serve.cache_warm_hits" "count" (counter "serve/cache_warm_hits");
          one "serve.rejected" "count" (counter "serve/rejected");
          one "eval_cache.shared_hits" "count" (counter "eval_cache_shared_hits");
        ];
    attempted = Array.length reqs + Array.length order;
    failed;
    errors = !g;
  }
