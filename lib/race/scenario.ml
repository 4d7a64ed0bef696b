(* The workloads [lcp race] drives under tracing and perturbation.

   Clean scenarios exercise the real shipped subsystems — the metrics
   registry, the serve job queue, the sweep class cache, the eval-cache
   lease pool, the domain pool, the full daemon — and are expected to
   produce zero findings on every seeded schedule. Each also asserts
   its own functional invariants (FIFO order, bounds, lease
   exclusivity, counter totals); a failed assertion surfaces as an
   [Invariant_violation] finding rather than killing the driver.

   Defect scenarios are deliberately broken doubles that prove the
   detector has teeth: an unguarded shared counter (a data race the
   happens-before pass must flag on every schedule, since no trace
   contains a synchronization path between the workers' accesses) and
   an AB/BA lock pair (run {e sequentially} on purpose — the
   lock-order analysis is static over the trace, so it flags the
   potential deadlock without risking a real one). They are excluded
   from the default run set and exercised by [--defects] / the tests,
   which expect exactly their findings. *)

module Sync = Lcp_obs.Sync
module R = Lcp_obs.Run_cfg
open Lcp_graph
open Lcp_local
open Lcp_engine

type t = {
  name : string;
  descr : string;
  defect : bool;  (** expected to produce findings *)
  run : unit -> unit;
}

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* clean scenarios                                                     *)

let metrics_run () =
  let m = Lcp_obs.Metrics.create () in
  let worker i () =
    for k = 1 to 150 do
      Lcp_obs.Metrics.incr m (Printf.sprintf "race/c%d" (k mod 3));
      if k mod 16 = 0 then Lcp_obs.Metrics.set_gauge m "race/gauge" (i + k);
      if k mod 32 = 0 then ignore (Lcp_obs.Metrics.counter m "race/c0")
    done
  in
  let hs = List.init 4 (fun i -> Sync.spawn "race/metrics/worker" (worker i)) in
  Lcp_obs.Metrics.with_span m "race/span" (fun () ->
      ignore (Lcp_obs.Metrics.counters m));
  List.iter Sync.join hs;
  let total =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k >= 6 && String.sub k 0 6 = "race/c" then acc + v
        else acc)
      0
      (Lcp_obs.Metrics.counters m)
  in
  if total <> 4 * 150 then fail "metrics: lost increments (%d <> 600)" total

let jobq_producers = 2
let jobq_consumers = 2
let jobq_items = 30

let jobq_run () =
  let q = Lcp_serve.Jobq.create ~capacity:8 in
  let producer p () =
    for i = 0 to jobq_items - 1 do
      let item = (p * 1000) + i in
      while not (Lcp_serve.Jobq.try_push q item) do
        Thread.yield ()
      done
    done
  in
  let got = Array.make jobq_consumers [] in
  let consumer c () =
    let rec drain () =
      match Lcp_serve.Jobq.pop q with
      | Some item ->
          got.(c) <- item :: got.(c);
          drain ()
      | None -> ()
    in
    drain ()
  in
  let ps = List.init jobq_producers (fun p -> Sync.spawn "race/jobq/producer" (producer p)) in
  let cs = List.init jobq_consumers (fun c -> Sync.spawn "race/jobq/consumer" (consumer c)) in
  List.iter Sync.join ps;
  Lcp_serve.Jobq.close q;
  List.iter Sync.join cs;
  (* each consumer's view preserves per-producer push order (FIFO) *)
  Array.iter
    (fun items ->
      let last = Hashtbl.create 4 in
      List.iter
        (fun item ->
          let p = item / 1000 and i = item mod 1000 in
          (match Hashtbl.find_opt last p with
          | Some j when j <= i -> fail "jobq: FIFO order violated for producer %d" p
          | _ -> ());
          Hashtbl.replace last p i)
        items (* lists are newest-first, so indices must decrease *))
    got;
  let all = Array.to_list got |> List.concat |> List.sort Stdlib.compare in
  let expected =
    List.concat
      (List.init jobq_producers (fun p ->
           List.init jobq_items (fun i -> (p * 1000) + i)))
    |> List.sort Stdlib.compare
  in
  if all <> expected then fail "jobq: items lost or duplicated";
  if Lcp_serve.Jobq.depth q <> 0 then fail "jobq: nonzero depth after drain";
  if not (Lcp_serve.Jobq.is_closed q) then fail "jobq: not closed"

let sweep_cache_run () =
  Sweep.clear_cache ();
  let cfg = R.make ~jobs:1 () in
  let worker () =
    for _ = 1 to 2 do
      let classes = Sweep.iso_classes ~cfg ~connected:true 5 in
      if List.length classes <> 21 then
        fail "sweep-cache: wrong class count for n=5"
    done
  in
  let hs = List.init 4 (fun _ -> Sync.spawn "race/sweep-cache/worker" worker) in
  List.iter Sync.join hs;
  let hits, misses = Sweep.cache_stats () in
  if hits + misses < 8 then fail "sweep-cache: lost cache traffic";
  if misses < 1 then fail "sweep-cache: impossible all-hit run";
  Sweep.clear_cache ()

let lease_run () =
  Eval_cache.set_sharing true;
  Fun.protect ~finally:(fun () -> Eval_cache.set_sharing false) @@ fun () ->
  let inst = Instance.make (Builders.path 4) in
  let lab = Array.make 4 "0" in
  let worker w () =
    for i = 1 to 8 do
      let key = Printf.sprintf "race/lease-%d" ((w + i) mod 2) in
      let l =
        Eval_cache.acquire ~key ~radius:1
          ~accepts:(fun _ -> true)
          ~alphabet:[ "0"; "1" ] inst
      in
      Eval_cache.lease_touch l;
      if not (Eval_cache.accepts (Eval_cache.lease_cache l) lab 0) then
        fail "lease-pool: decoder verdict changed";
      Eval_cache.lease_touch l;
      Eval_cache.release l
    done
  in
  let hs = List.init 3 (fun w -> Sync.spawn "race/lease/worker" (worker w)) in
  List.iter Sync.join hs;
  let size = Eval_cache.shared_size () in
  if size > 2 then fail "lease-pool: pool grew past its key space (%d)" size

let pool_sweep_run () =
  Sweep.clear_cache ();
  let cfg = R.make ~jobs:4 () in
  let s =
    Sweep.run ~cfg ~n:5
      ~check:(fun g -> if Graph.order g = 5 then None else Some ())
      ()
  in
  if s.Sweep.counters.Sweep.violations <> 0 then
    fail "pool-sweep: unexpected violations";
  let s =
    Sweep.run ~cfg ~mode:Sweep.Search_counterexample ~n:5
      ~check:(fun g -> if Graph.size g > 8 then Some (Graph.size g) else None)
      ()
  in
  if s.Sweep.counterexample = None then
    fail "pool-sweep: search missed a dense class";
  Sweep.clear_cache ()

let serve_socket_counter = ref 0

(* Two client connections at once against two worker domains, so jobs
   really overlap: both send the same sweep under different coalesce
   keys (the [jobs] option differs, the work does not), which makes
   two workers lease the same acceptance tables at the same moment,
   and the same check under one key, which coalesces or queues. *)
let serve_run () =
  Sweep.clear_cache ();
  incr serve_socket_counter;
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp-race-%d-%d.sock" (Unix.getpid ())
         !serve_socket_counter)
  in
  let config =
    { (Lcp_serve.Server.default_config ~socket_path) with capacity = 4; workers = 2 }
  in
  let t = Lcp_serve.Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Lcp_serve.Server.stop t;
      Lcp_serve.Server.wait t;
      (* connection handlers are fire-and-forget: give the last one a
         beat to log its End before the driver disarms *)
      Thread.delay 0.05)
    (fun () ->
      let module P = Lcp_serve.Protocol in
      let client i () =
        Lcp_serve.Client.with_connection socket_path (fun c ->
            let req ?(opts = P.default_opts) kind = { P.kind; opts } in
            let sweep =
              req
                ~opts:{ P.default_opts with P.jobs = Some (i + 1) }
                (P.Sweep
                   {
                     decoder = "degree-one";
                     n = 4;
                     strategy = "orderly";
                     early_exit = false;
                     shards = 1;
                   })
            in
            let check = req (P.Check { decoder = "degree-one"; graph = "cycle:5" }) in
            let ask what r =
              match Lcp_serve.Client.request c r with
              | Ok resp when resp.P.status = P.Done -> ()
              | _ -> fail "serve: connection %d: %s failed" i what
            in
            ask "ping" (req P.Ping);
            ask "cold sweep" sweep;
            ask "check" check;
            ask "warm sweep" sweep;
            ask "metrics" (req P.Metrics))
      in
      let hs = List.init 2 (fun i -> Sync.spawn "race/serve/client" (client i)) in
      List.iter Sync.join hs;
      let requests = Lcp_obs.Metrics.counter (Lcp_serve.Server.metrics t) "serve/requests" in
      if requests <> 10 then fail "serve: %d responses counted, 10 sent" requests);
  Sweep.clear_cache ()

(* ------------------------------------------------------------------ *)
(* defect doubles                                                      *)

let defect_counter_run () =
  let ctr = Sync.Var.make "race/defect.counter" 0 in
  let worker () =
    for _ = 1 to 400 do
      Sync.Var.set ctr (Sync.Var.get ctr + 1)
    done
  in
  let a = Sync.spawn "race/defect/inc-a" worker in
  let b = Sync.spawn "race/defect/inc-b" worker in
  Sync.join a;
  Sync.join b;
  ignore (Sync.Var.get ctr)

let defect_lock_order_run () =
  let la = Sync.mutex "race/defect.lock-a" in
  let lb = Sync.mutex "race/defect.lock-b" in
  let ab = Sync.spawn "race/defect/ab" (fun () ->
      Sync.with_lock la (fun () -> Sync.with_lock lb (fun () -> ())))
  in
  Sync.join ab;
  let ba = Sync.spawn "race/defect/ba" (fun () ->
      Sync.with_lock lb (fun () -> Sync.with_lock la (fun () -> ())))
  in
  Sync.join ba

(* ------------------------------------------------------------------ *)
(* registry                                                            *)

let all =
  [
    {
      name = "metrics";
      descr = "concurrent counter/gauge traffic on one Metrics registry";
      defect = false;
      run = metrics_run;
    };
    {
      name = "jobq";
      descr = "bounded FIFO under concurrent producers and consumers";
      defect = false;
      run = jobq_run;
    };
    {
      name = "sweep-cache";
      descr = "racing cold lookups of the cross-sweep class cache";
      defect = false;
      run = sweep_cache_run;
    };
    {
      name = "lease-pool";
      descr = "eval-cache lease pool checked out from competing threads";
      defect = false;
      run = lease_run;
    };
    {
      name = "pool-sweep";
      descr = "domain-pool sweep plus early-exit search (jobs=4)";
      defect = false;
      run = pool_sweep_run;
    };
    {
      name = "serve";
      descr =
        "full daemon, two connections on two worker domains: cold+warm \
         sweeps, checks, metrics";
      defect = false;
      run = serve_run;
    };
    {
      name = "defect-counter";
      descr = "deliberately unguarded shared counter (expects a data race)";
      defect = true;
      run = defect_counter_run;
    };
    {
      name = "defect-lock-order";
      descr = "deliberate AB/BA lock pair (expects a lock inversion)";
      defect = true;
      run = defect_lock_order_run;
    };
  ]

let clean = List.filter (fun s -> not s.defect) all
let defects = List.filter (fun s -> s.defect) all
let find name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all
