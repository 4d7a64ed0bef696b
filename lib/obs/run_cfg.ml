type t = {
  jobs : int;
  heavy : bool;
  seed : int;
  sink : Sink.t;
  deadline : float option;
  metrics : Metrics.t;
  t0 : float;
}

(* The historical experiment seed (see Experiments): kept as the
   default so cfg-less runs reproduce the seed repo's tables. *)
let default_seed = 20250706

let normalize_jobs = function
  | Some j when j > 0 -> j
  | _ -> Domain.recommended_domain_count ()

let make ?jobs ?(heavy = true) ?(seed = default_seed) ?(sink = Sink.null)
    ?deadline () =
  {
    jobs = normalize_jobs jobs;
    heavy;
    seed;
    sink;
    deadline;
    metrics = Metrics.create ();
    t0 = Clock.now_s ();
  }

let default = make ()
let with_jobs t jobs = { t with jobs = normalize_jobs (Some jobs) }
let sequential t = { t with jobs = 1 }
let rng t = Random.State.make [| t.seed |]

let span t name f =
  Metrics.with_span
    ~enter:(fun path -> t.sink.Sink.emit t.metrics (Sink.Span_start path))
    ~leave:(fun path ns -> t.sink.Sink.emit t.metrics (Sink.Span_end (path, ns)))
    t.metrics name f

let count t ?by name = Metrics.incr t.metrics ?by name
let set_gauge t name v = Metrics.set_gauge t.metrics name v
let progress t line = t.sink.Sink.emit t.metrics (Sink.Progress line)
let flush t = t.sink.Sink.flush t.metrics

let remaining_s t =
  Option.map (fun d -> d -. (Clock.now_s () -. t.t0)) t.deadline

let expired t = match remaining_s t with Some r -> r <= 0. | None -> false
