module Sync = Lcp_obs.Sync

let default_jobs () = Domain.recommended_domain_count ()

(* BENCH_sweep.json: n=5 par_wall > seq_wall, as spawning and joining
   domains dwarfs a few hundred microseconds of light tasks *)
let effective_jobs ~jobs count = if count < 64 then 1 else jobs

(* Run [worker w] (which reports its exception instead of raising) on
   this domain (index 0) plus [extra] spawned domains (indices 1..);
   join everything, then re-raise the first exception observed. The
   spawns go through the instrumented layer so [lcp race] sees the
   fork/join happens-before edges. *)
let with_domains ~extra worker =
  let spawned =
    List.init extra (fun w ->
        Sync.spawn_domain "engine/pool/worker" (fun () -> worker (w + 1)))
  in
  let main_exn = worker 0 in
  let first_exn =
    List.fold_left
      (fun acc d ->
        let r = try Sync.join_domain d with e -> Some e in
        match acc with None -> r | Some _ -> acc)
      main_exn spawned
  in
  match first_exn with Some e -> raise e | None -> ()

(* Per-domain work-steal tally: how many task indices worker [w]
   pulled. A gauge of the actual schedule, not part of the
   deterministic-counter contract (see Lcp_obs.Metrics). *)
let record_tasks metrics w n =
  match metrics with
  | None -> ()
  | Some m -> Lcp_obs.Metrics.incr m ~by:n (Printf.sprintf "pool/worker%d/tasks" w)

let run ?metrics ~jobs count f =
  if count <= 0 then [||]
  else if jobs <= 1 || count = 1 then begin
    record_tasks metrics 0 count;
    Array.init count f
  end
  else begin
    let results = Array.make count None in
    let next = Sync.A.make "engine/pool.next" 0 in
    let worker w =
      let exn = ref None in
      let pulled = ref 0 in
      (try
         let continue = ref true in
         while !continue do
           let i = Sync.A.fetch_and_add next 1 in
           if i >= count then continue := false
           else begin
             incr pulled;
             results.(i) <- Some (f i)
           end
         done
       with e -> exn := Some e);
      record_tasks metrics w !pulled;
      !exn
    in
    with_domains ~extra:(min jobs count - 1) worker;
    Array.map (function Some x -> x | None -> assert false) results
  end

let map ?metrics ~jobs f arr =
  run ?metrics ~jobs (Array.length arr) (fun i -> f arr.(i))

let search ?metrics ~jobs count f =
  if count <= 0 then None
  else if jobs <= 1 || count = 1 then begin
    let rec go i =
      if i >= count then begin
        record_tasks metrics 0 count;
        None
      end
      else
        match f i with
        | Some x ->
            record_tasks metrics 0 (i + 1);
            Some (i, x)
        | None -> go (i + 1)
    in
    go 0
  end
  else begin
    let next = Sync.A.make "engine/pool.next" 0 in
    let best = Sync.A.make "engine/pool.best" max_int in
    let lock = Sync.mutex "engine/pool.search" in
    let found = Sync.Var.make "engine/pool.found" None in
    let record i x =
      (* lower the cancellation bound first, then the witness *)
      let rec lower () =
        let b = Sync.A.get best in
        if i < b && not (Sync.A.compare_and_set best b i) then lower ()
      in
      lower ();
      Sync.with_lock lock (fun () ->
          match Sync.Var.get found with
          | Some (j, _) when j <= i -> ()
          | _ -> Sync.Var.set found (Some (i, x)))
    in
    let worker w =
      let exn = ref None in
      let pulled = ref 0 in
      (try
         let continue = ref true in
         while !continue do
           let i = Sync.A.fetch_and_add next 1 in
           if i >= count then continue := false
           else if i < Sync.A.get best then begin
             incr pulled;
             match f i with Some x -> record i x | None -> ()
           end
           (* i above the current best: skip, it cannot win *)
         done
       with e -> exn := Some e);
      record_tasks metrics w !pulled;
      !exn
    in
    with_domains ~extra:(min jobs count - 1) worker;
    Sync.Var.get found
  end
