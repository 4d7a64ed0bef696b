open Lcp_graph
open Lcp_local
module Run_cfg = Lcp_obs.Run_cfg
module Clock = Lcp_obs.Clock
module Json = Lcp_obs.Json

(* Chunk size for parallel fan-out. Counters are accumulated per chunk
   and summed sequentially afterwards, so every tally is independent of
   cfg.jobs by construction. *)
let chunk_size = 4096

type completeness = {
  instance : string;
  c_nodes : int;
  c_edges : int;
  evaluated : int;
  accepted : int;
  c_wall_ns : int;
}

type soundness = {
  applicable : bool;
  trials : int;
  rejected_trials : int;
  probes : int;
  accepting_trials : int;
  s_wall_ns : int;
}

type hiding = {
  pairs : int;
  structural_collisions : int;
  structural_matches : int;
  certified_collisions : int;
  h_wall_ns : int;
}

type report = {
  decoder : string;
  model : string;
  seed : int;
  nodes : int;
  edges : int;
  build_wall_ns : int;
  completeness : completeness option;
  soundness : soundness option;
  hiding : hiding option;
  violations : int;
}

let chunks_of n = (n + chunk_size - 1) / chunk_size

let chunk_bounds n c =
  let lo = c * chunk_size in
  (lo, min n (lo + chunk_size))

(* seeded sample of [k] distinct nodes out of [0 .. n-1] (partial
   Fisher-Yates); returns the full identity permutation prefix when
   k >= n. Deterministic in (seed, tag). *)
let sample_nodes ~seed ~tag ~k n =
  let rng = Random.State.make [| seed; tag |] in
  let arr = Array.init n (fun i -> i) in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.sub arr 0 k

let accepts_node (suite : Decoder.suite) inst v =
  suite.Decoder.dec.Decoder.accepts
    (View.extract inst ~r:suite.Decoder.dec.Decoder.radius v)

(* ---- completeness ------------------------------------------------ *)

(* The sampled yes-instance: the model graph itself when it satisfies
   the promise, else its bipartite double cover (for the 2-coloring
   promises a random graph rarely satisfies directly). *)
let yes_graph (suite : Decoder.suite) g =
  if suite.Decoder.promise g then Some (g, "model graph")
  else begin
    let dc = Builders.double_cover g in
    if suite.Decoder.promise dc then Some (dc, "bipartite double cover")
    else None
  end

(* The yes-instance certified once by the honest prover; the
   completeness and hiding phases both read it. *)
type yes_instance = { yg : Graph.t; label : string; certified : Instance.t }

let certify_yes (suite : Decoder.suite) g =
  match yes_graph suite g with
  | None -> None
  | Some (yg, label) -> (
      let inst = Instance.make yg in
      match suite.Decoder.prover inst with
      | None -> None
      | Some lab ->
          Some { yg; label; certified = Instance.with_labels inst lab })

(* The phase's tallies, paired with the certified yes-instance it
   derives inside its span for the hiding phase to reuse. *)
let completeness_phase ~cfg ~eval_nodes (suite : Decoder.suite) g =
  Run_cfg.span cfg "sample/completeness" (fun () ->
      match certify_yes suite g with
      | None -> None
      | Some yes ->
          let n = Graph.order yes.yg in
          let sample =
            sample_nodes ~seed:cfg.Run_cfg.seed ~tag:0x5AC0 ~k:eval_nodes n
          in
          let k = Array.length sample in
          let t0 = Clock.now_ns () in
          let tallies =
            Lcp_engine.Pool.run ~jobs:cfg.Run_cfg.jobs (chunks_of k) (fun c ->
                let lo, hi = chunk_bounds k c in
                let acc = ref 0 in
                for i = lo to hi - 1 do
                  if accepts_node suite yes.certified sample.(i) then incr acc
                done;
                !acc)
          in
          let accepted = Array.fold_left ( + ) 0 tallies in
          let wall = Clock.now_ns () - t0 in
          Run_cfg.count cfg ~by:k "sample/completeness_evals";
          Run_cfg.count cfg ~by:accepted "sample/completeness_accepts";
          Some
            ( {
                instance = yes.label;
                c_nodes = n;
                c_edges = Graph.size yes.yg;
                evaluated = k;
                accepted;
                c_wall_ns = wall;
              },
              yes ))

(* ---- sampled adversarial soundness ------------------------------- *)

(* One adversarial trial: a seeded labeling (uniform over the decoder's
   adversary alphabet; odd trials exclude the junk symbol, which every
   decoder rejects on sight, to exercise the harder part of the
   alphabet), probed in a seeded node order until some node rejects.
   Returns (rejected, probes). A trial in which every single node
   accepts is a soundness violation witness. *)
let soundness_trial (suite : Decoder.suite) inst ~alphabet ~seed ~trial =
  let g = inst.Instance.graph in
  let n = Graph.order g in
  let rng = Random.State.make [| seed; 0x5AD1; trial |] in
  let alphabet =
    if trial mod 2 = 1 then
      match List.filter (fun s -> s <> Decoder.junk) alphabet with
      | [] -> alphabet
      | a -> a
    else alphabet
  in
  let lab = Labeling.random rng ~alphabet g in
  let adv = Instance.with_labels inst lab in
  (* incremental Fisher-Yates: the probe order is a seeded permutation
     but only the probed prefix is ever materialized *)
  let order = Array.init n (fun i -> i) in
  let probes = ref 0 in
  let rejected = ref false in
  let i = ref 0 in
  while (not !rejected) && !i < n do
    let j = !i + Random.State.int rng (n - !i) in
    let v = order.(j) in
    order.(j) <- order.(!i);
    order.(!i) <- v;
    incr probes;
    if not (accepts_node suite adv v) then rejected := true;
    incr i
  done;
  (!rejected, !probes)

let soundness_phase ~cfg ~trials (suite : Decoder.suite) g =
  Run_cfg.span cfg "sample/soundness" (fun () ->
      if suite.Decoder.promise g then
        (* the model graph is a yes-instance: adversarial rejection is
           not required, so the phase does not apply *)
        Some
          {
            applicable = false;
            trials = 0;
            rejected_trials = 0;
            probes = 0;
            accepting_trials = 0;
            s_wall_ns = 0;
          }
      else begin
        let inst = Instance.make g in
        let alphabet = suite.Decoder.adversary_alphabet inst in
        let t0 = Clock.now_ns () in
        let results =
          Lcp_engine.Pool.run ~jobs:cfg.Run_cfg.jobs trials (fun t ->
              soundness_trial suite inst ~alphabet ~seed:cfg.Run_cfg.seed
                ~trial:t)
        in
        let wall = Clock.now_ns () - t0 in
        let rejected_trials =
          Array.fold_left (fun a (r, _) -> if r then a + 1 else a) 0 results
        in
        let probes = Array.fold_left (fun a (_, p) -> a + p) 0 results in
        Run_cfg.count cfg ~by:trials "sample/soundness_trials";
        Run_cfg.count cfg ~by:rejected_trials "sample/soundness_rejected";
        Run_cfg.count cfg ~by:probes "sample/soundness_probes";
        Some
          {
            applicable = true;
            trials;
            rejected_trials;
            probes;
            accepting_trials = trials - rejected_trials;
            s_wall_ns = wall;
          }
      end)

(* ---- sampled hiding probe ---------------------------------------- *)

(* A sampled observable of the paper's hiding notion, not the exhaustive
   Lemma 3.2 machinery (Hiding.verdict), which enumerates neighborhoods
   and is infeasible at 10^5+ nodes. For seeded node pairs of the
   certified yes-instance we compare anonymized view keys:
   - structural collision: certificate-blanked keys equal but honest
     colors differ — radius-r structure alone cannot determine the
     color, the necessary condition any hiding certification relies on;
   - certified collision: keys equal with certificates visible yet
     colors differ — the certified views themselves do not leak the
     coloring. A decoder whose certificates are the colors (trivial-k)
     scores 0 here: correctly reported as non-hiding. *)
let hiding_phase ~cfg ~pairs (suite : Decoder.suite) yes =
  Run_cfg.span cfg "sample/hiding" (fun () ->
      match Coloring.two_color yes.yg with
      | None -> None
      | Some colors ->
          let certified = yes.certified in
          let n = Graph.order yes.yg in
          let r = suite.Decoder.dec.Decoder.radius in
          let t0 = Clock.now_ns () in
          (* every chunk draws its full share of node pairs, so the
             draw stream does not depend on which draws coincide; a
             draw with u = w compares nothing and is not counted *)
          let tallies =
            Lcp_engine.Pool.run ~jobs:cfg.Run_cfg.jobs (chunks_of pairs)
              (fun c ->
                let lo, hi = chunk_bounds pairs c in
                let rng = Random.State.make [| cfg.Run_cfg.seed; 0x51D1; c |] in
                let compared = ref 0
                and structural = ref 0
                and matches = ref 0
                and certified_c = ref 0 in
                for _ = lo to hi - 1 do
                  let u = Random.State.int rng n in
                  let w = Random.State.int rng n in
                  if u <> w then begin
                    incr compared;
                    let vu = View.extract certified ~r u in
                    let vw = View.extract certified ~r w in
                    let blank v = View.map_labels v (fun _ -> "") in
                    let same_structure =
                      View.key_anonymous (blank vu)
                      = View.key_anonymous (blank vw)
                    in
                    if same_structure then begin
                      incr matches;
                      if colors.(u) <> colors.(w) then begin
                        incr structural;
                        if View.key_anonymous vu = View.key_anonymous vw then
                          incr certified_c
                      end
                    end
                  end
                done;
                (!compared, !structural, !matches, !certified_c))
          in
          let wall = Clock.now_ns () - t0 in
          let sum f = Array.fold_left (fun a t -> a + f t) 0 tallies in
          let pairs = sum (fun (p, _, _, _) -> p) in
          let structural_collisions = sum (fun (_, s, _, _) -> s) in
          let structural_matches = sum (fun (_, _, m, _) -> m) in
          let certified_collisions = sum (fun (_, _, _, c) -> c) in
          Run_cfg.count cfg ~by:pairs "sample/hiding_pairs";
          Run_cfg.count cfg ~by:structural_collisions
            "sample/hiding_structural_collisions";
          Run_cfg.count cfg ~by:certified_collisions
            "sample/hiding_certified_collisions";
          Some
            {
              pairs;
              structural_collisions;
              structural_matches;
              certified_collisions;
              h_wall_ns = wall;
            })

(* ---- driver ------------------------------------------------------ *)

let run ?(eval_nodes = 50_000) ?(trials = 8) ?(pairs = 2_000) ~cfg ~decoder
    ~model (suite : Decoder.suite) g =
  let nodes = Graph.order g and edges = Graph.size g in
  let certified =
    if Run_cfg.expired cfg then None
    else completeness_phase ~cfg ~eval_nodes suite g
  in
  let completeness = Option.map fst certified in
  let soundness =
    if Run_cfg.expired cfg then None else soundness_phase ~cfg ~trials suite g
  in
  let hiding =
    if Run_cfg.expired cfg then None
    else
      match certified with
      | Some (c, yes) when c.evaluated > 0 -> hiding_phase ~cfg ~pairs suite yes
      | _ -> None
  in
  let violations =
    (match completeness with
    | Some c when c.accepted < c.evaluated -> 1
    | _ -> 0)
    +
    match soundness with
    | Some s when s.applicable && s.accepting_trials > 0 -> 1
    | _ -> 0
  in
  Run_cfg.count cfg ~by:violations "sample/violations";
  {
    decoder;
    model;
    seed = cfg.Run_cfg.seed;
    nodes;
    edges;
    build_wall_ns = 0;
    completeness;
    soundness;
    hiding;
    violations;
  }

let with_build_wall_ns report ns = { report with build_wall_ns = ns }

(* ---- JSON -------------------------------------------------------- *)

let schema_version = 1

let per_sec count wall_ns =
  if wall_ns <= 0 then 0
  else int_of_float (float_of_int count /. (float_of_int wall_ns /. 1e9))

let peak_rss_kb () =
  (* VmHWM from /proc/self/status; absent outside Linux *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              String.sub line 6 (String.length line - 6)
              |> String.trim
              |> String.split_on_char ' '
              |> fun parts ->
              (match parts with x :: _ -> int_of_string_opt x | [] -> None)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let report_to_json (r : report) =
  let completeness =
    match r.completeness with
    | None -> Json.Null
    | Some c ->
        Json.Obj
          [
            ("instance", Json.String c.instance);
            ("nodes", Json.Int c.c_nodes);
            ("edges", Json.Int c.c_edges);
            ("evaluated", Json.Int c.evaluated);
            ("accepted", Json.Int c.accepted);
            ("wall_ns", Json.Int c.c_wall_ns);
            ("nodes_per_sec", Json.Int (per_sec c.evaluated c.c_wall_ns));
          ]
  in
  let soundness =
    match r.soundness with
    | None -> Json.Null
    | Some s ->
        Json.Obj
          [
            ("applicable", Json.Bool s.applicable);
            ("trials", Json.Int s.trials);
            ("rejected_trials", Json.Int s.rejected_trials);
            ("accepting_trials", Json.Int s.accepting_trials);
            ("probes", Json.Int s.probes);
            ("wall_ns", Json.Int s.s_wall_ns);
            ("probes_per_sec", Json.Int (per_sec s.probes s.s_wall_ns));
          ]
  in
  let hiding =
    match r.hiding with
    | None -> Json.Null
    | Some h ->
        Json.Obj
          [
            ("pairs", Json.Int h.pairs);
            ("structural_matches", Json.Int h.structural_matches);
            ("structural_collisions", Json.Int h.structural_collisions);
            ("certified_collisions", Json.Int h.certified_collisions);
            ("wall_ns", Json.Int h.h_wall_ns);
          ]
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("decoder", Json.String r.decoder);
      ("model", Json.String r.model);
      ("seed", Json.Int r.seed);
      ("nodes", Json.Int r.nodes);
      ("edges", Json.Int r.edges);
      ("build_wall_ns", Json.Int r.build_wall_ns);
      ( "build_nodes_per_sec",
        Json.Int (per_sec r.nodes r.build_wall_ns) );
      ( "build_edges_per_sec",
        Json.Int (per_sec r.edges r.build_wall_ns) );
      ("completeness", completeness);
      ("soundness", soundness);
      ("hiding", hiding);
      ("violations", Json.Int r.violations);
      ( "peak_rss_kb",
        match peak_rss_kb () with Some kb -> Json.Int kb | None -> Json.Null );
    ]
