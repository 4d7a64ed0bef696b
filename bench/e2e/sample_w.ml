(* sample: Sampling.run with the trivial2 suite on a seeded
   preferential-attachment graph of average degree 8 (`lcp sample`'s
   "ba" model), built once as set-up. The control workload: it never
   enumerates classes or searches certificates, so engine changes must
   not move it. It runs on one domain: with two, its peak memory and
   wall time depend on how the domains' allocation interleaves with
   major collections, and vary several times more from run to run.

   Not G(n, p): its edge count is binomial, and Graph.Builder starts
   from the expected count + 16, so about half the seeds regrow the
   edge arrays once and take a quarter longer to build. The median
   set-up time over ten seeds then jumps with the seeds' mix. A
   preferential-attachment graph's edge count is fixed by n and m. *)

open Lcp
open Lcp_graph
open Lcp_local
open Common
module Run_cfg = Lcp_obs.Run_cfg
module Metrics = Lcp_obs.Metrics

let nodes (sc : scale) = if sc.quick then 10_000 else 250_000
let jobs = 1
let suite () = (Option.get (Registry.find "trivial2")).Registry.suite

let build (sc : scale) =
  Random_graphs.preferential_attachment (Random.State.make [| sc.seed |]) (nodes sc) ~m:4

let sample_once (sc : scale) suite g =
  let cfg = Run_cfg.make ~jobs ~seed:sc.seed () in
  let r, wall =
    timed (fun () -> Sampling.run ~cfg ~decoder:"trivial2" ~model:"ba" suite g)
  in
  (r, Metrics.counters cfg.Run_cfg.metrics, wall)

(* Besides the verdicts, the gates pin the path Sampling.run took to the
   one [replay] below times: the model graph fails the promise, the
   yes-instance is its double cover, and all three phases ran. *)
let check_report g graph (r : Sampling.report) =
  gate g (r.Sampling.violations = 0) "sample: %d violations" r.Sampling.violations;
  (match r.Sampling.completeness with
  | Some c ->
      gate g (c.Sampling.evaluated > 0 && c.Sampling.accepted = c.Sampling.evaluated)
        "sample: %d of %d sampled nodes accepted" c.Sampling.accepted c.Sampling.evaluated;
      gate g
        (c.Sampling.instance = "bipartite double cover" && c.Sampling.c_nodes = 2 * Graph.order graph)
        "sample: yes-instance is %S on %d nodes, expected the %d-node double cover"
        c.Sampling.instance c.Sampling.c_nodes (2 * Graph.order graph)
  | None -> gate g false "sample: no completeness phase");
  (match r.Sampling.soundness with
  | Some s -> gate g s.Sampling.applicable "sample: soundness phase not applicable"
  | None -> gate g false "sample: no soundness phase");
  gate g (r.Sampling.hiding <> None) "sample: no hiding phase"

let run (sc : scale) g =
  let gs = gates () in
  let suite = suite () in
  let results = reps sc (fun () -> sample_once sc suite g) in
  List.iter (fun (r, _, _) -> check_report gs g r) results;
  let counters = List.map (fun (_, c, _) -> c) results in
  gate gs (List.for_all (( = ) (List.hd counters)) counters) "sample: counters differ across reps";
  {
    rows =
      [
        row "wall_s" "s" (List.map (fun (_, _, w) -> w) results);
        one "peak_rss_mb" "MB" (self_vmhwm_mb ());
      ];
    attempted = List.length results;
    failed = 0;
    errors = !gs;
  }

(* Mean View.extract ~r:1 time over up to 50,000 seeded nodes. *)
let extract_ns (sc : scale) inst n =
  let rng = Random.State.make [| sc.seed; 0xE1 |] in
  let k = min n 50_000 in
  let picks = Array.init k (fun _ -> Random.State.int rng n) in
  let (), s =
    timed (fun () -> Array.iter (fun v -> ignore (Sys.opaque_identity (View.extract inst ~r:1 v))) picks)
  in
  safe_div (s *. 1e9) (fi k)

let traverse_ns_per_arc g =
  let acc = ref 0 in
  let (), s =
    timed (fun () ->
        for v = 0 to Graph.order g - 1 do
          Graph.iter_neighbors (fun w -> acc := !acc + w) g v
        done)
  in
  ignore (Sys.opaque_identity !acc);
  safe_div (s *. 1e9) (fi (2 * Graph.size g))

(* Sampling.run's steps outside its own phase timers, replayed from
   outside in its order and timed per call. It derives the yes-instance
   twice, in the completeness and again in the hiding phase: the double
   cover, its instance and the honest prover run twice, the model
   graph's promise once per phase that needs it. [check_report] fails
   the run when the report shows another path; a change to the steps
   within a phase needs the same change here. *)
type replay = {
  promise_g : float;  (** model-graph promise, per call *)
  cover : float;  (** Builders.double_cover, per call *)
  bipartite : float;  (** the cover's promise + Coloring.two_color *)
  inst_dc : float;  (** Instance.make of the cover, per call *)
  prover : float;  (** honest prover on the cover, per call *)
  inst_g : float;  (** Instance.make of the model graph *)
}

let replay (suite : Decoder.suite) g =
  let t f = snd (timed f) in
  let promise_g = t (fun () -> suite.Decoder.promise g) in
  let dc, cover = timed (fun () -> Builders.double_cover g) in
  let promise_dc = t (fun () -> suite.Decoder.promise dc) in
  let inst_dc, make_dc = timed (fun () -> Instance.make dc) in
  let prover = t (fun () -> suite.Decoder.prover inst_dc) in
  ignore (t (fun () -> suite.Decoder.promise g));
  let inst_g = t (fun () -> Instance.make g) in
  let dc2, cover2 = timed (fun () -> Builders.double_cover g) in
  let two_color = t (fun () -> Coloring.two_color dc2) in
  let inst2, make_dc2 = timed (fun () -> Instance.make dc2) in
  let prover2 = t (fun () -> suite.Decoder.prover inst2) in
  {
    promise_g;
    cover = (cover +. cover2) /. 2.;
    bipartite = promise_dc +. two_color;
    inst_dc = (make_dc +. make_dc2) /. 2.;
    prover = (prover +. prover2) /. 2.;
    inst_g;
  }

let trace (sc : scale) g =
  let gs = gates () in
  let suite = suite () in
  (* a warm-up rep, then 3 traced reps each followed by a replay, so
     both see the same heap and the same machine *)
  ignore (sample_once sc suite g);
  let runs =
    List.init 3 (fun _ ->
        let traced = sample_once sc suite g in
        (traced, replay suite g))
  in
  List.iter (fun ((r, _, _), _) -> check_report gs g r) runs;
  let med f = median (List.map f runs) in
  let wall = med (fun ((_, _, w), _) -> w) in
  (* a phase timer of the report, 0 when the phase was skipped *)
  let phase get ns =
    med (fun ((r, _, _), _) -> Option.fold ~none:0. ~some:(fun p -> fi (ns p) /. 1e9) (get r))
  in
  let c_s = phase (fun r -> r.Sampling.completeness) (fun c -> c.Sampling.c_wall_ns) in
  let s_s = phase (fun r -> r.Sampling.soundness) (fun s -> s.Sampling.s_wall_ns) in
  let h_s = phase (fun r -> r.Sampling.hiding) (fun h -> h.Sampling.h_wall_ns) in
  let rp f = med (fun (_, x) -> f x) in
  let graph = rp (fun x -> (2. *. x.cover) +. x.bipartite +. (2. *. x.promise_g)) in
  let instance = rp (fun x -> (2. *. x.inst_dc) +. x.inst_g) in
  let prover = rp (fun x -> 2. *. x.prover) in
  let view = c_s +. s_s +. h_s in
  let unattributed = wall -. graph -. instance -. prover -. view in
  let _, build_s = timed3 (fun () -> build sc) in
  let inst_g = Instance.make g in
  {
    rows =
      Layers.shares ~wall
        [ ("graph", graph); ("instance", instance); ("prover", prover); ("view", view) ]
      @ [
          one "graph.build_s" "s" build_s;
          one "graph.double_cover_s" "s" (rp (fun x -> x.cover));
          one "coloring.bipartite_s" "s" (rp (fun x -> x.bipartite));
          one "instance.make_s" "s" (rp (fun x -> x.inst_dc));
          one "prover.honest_s" "s" (rp (fun x -> x.prover));
          one "sample.completeness_s" "s" c_s;
          one "sample.soundness_s" "s" s_s;
          one "sample.hiding_s" "s" h_s;
          one "sample.unattributed_s" "s" unattributed;
          one "view.extract_ns" "ns" (extract_ns sc inst_g (Graph.order g));
          one "graph.traverse_ns_per_arc" "ns" (traverse_ns_per_arc g);
          one "gc.top_heap_mb" "MB" (top_heap_mb ());
        ];
    attempted = 4;
    failed = 0;
    errors = !gs;
  }
