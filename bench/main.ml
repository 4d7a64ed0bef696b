(* Benchmark harness: one bechamel micro-benchmark per experiment area
   (DESIGN.md Sec. 3's bench-target column), the printed series the
   paper's artifacts correspond to, and the A/B series behind each
   speedup layer.

   Run with: dune exec bench/main.exe                  (full)
             dune exec bench/main.exe -- --fast        (smaller sizes)
             dune exec bench/main.exe -- --large       (large series only)
             ... --out-dir DIR                         (default .)

   Every series yields [row]s, printed by one table printer. The eight
   recorded series (sweep, enumerate, search, orbit, serve, coord,
   race, large) are also written by one writer to
   DIR/BENCH_<series>.json. A row whose A/B sides disagree makes the
   run exit 1. *)

open Lcp_graph
open Lcp_local
open Lcp
module Json = Lcp_obs.Json
module Run_cfg = Lcp_obs.Run_cfg
module Oracle = Lcp_oracle.Oracle
module Sweep = Lcp_engine.Sweep
module Protocol = Lcp_serve.Protocol

let rng = Random.State.make [| 424242 |]

(* The engine series' cfg: recommended domain count, fixed seed. *)
let bench_cfg = Run_cfg.make ~seed:424242 ()

(* ------------------------------------------------------------------ *)
(* fixtures shared by the benchmarks                                    *)

let grid55 = Instance.make (Builders.grid 5 5)
let theta = Builders.theta 4 4 4

let certified suite g = Option.get (Decoder.certify suite (Instance.make g))
let d1_inst = certified D_degree_one.suite (Builders.path 8)
let cyc_inst = certified D_even_cycle.suite (Builders.cycle 8)
let union_inst = certified D_union.suite (Builders.path 8)
let shatter_inst = certified D_shatter.suite (Builders.path 8)
let wm_inst = certified D_watermelon.suite (Builders.watermelon [ 4; 4; 4 ])
let spanning_inst = certified D_spanning.suite (Builders.grid 3 3)
let trivial_inst = certified (D_trivial.suite ~k:2) (Builders.grid 3 3)

let d1_family =
  Neighborhood.exhaustive_family D_degree_one.suite
    ~graphs:
      (List.filter
         (fun g -> Coloring.is_bipartite g && Graph.min_degree g = 1)
         (Lcp_oracle.Enumerate.connected_up_to_iso 4))
    ()

let extraction_family =
  let suite = D_trivial.suite ~k:2 in
  List.filter_map
    (fun g -> Decoder.certify suite (Instance.make g))
    [ Builders.path 4; Builders.path 5; Builders.cycle 4; Builders.cycle 6 ]

let extractor =
  Option.get
    (Extractor.of_verdict
       (Hiding.check ~k:2 (D_trivial.decoder ~k:2) extraction_family))

let rotation_instances =
  let g = Builders.path 5 in
  List.init 5 (fun k ->
      let ids = Array.init 5 (fun v -> 1 + ((k + v) mod 5)) in
      Instance.make g ~ids:(Ident.of_array ~bound:5 ids))

let accept_all =
  Decoder.make ~name:"accept-all" ~radius:1 ~anonymous:false (fun _ -> true)

(* ------------------------------------------------------------------ *)
(* bechamel tests (one per experiment id)                               *)

let stage = Bechamel.Staged.stage

let tests =
  let open Bechamel in
  [
    (* E1 *)
    Test.make ~name:"E1/forgetful-check-theta444"
      (stage (fun () -> Forgetful.is_r_forgetful theta ~r:1));
    Test.make ~name:"E1/escape-path-torus7x7"
      (let torus = Builders.torus 7 7 in
       stage (fun () -> Forgetful.escape_path torus ~r:1 ~v:0 ~u:1));
    (* E2 / E13 *)
    Test.make ~name:"E2/view-extract-r2-grid5x5"
      (stage (fun () -> View.extract grid55 ~r:2 12));
    Test.make ~name:"E2/view-key-anonymous"
      (let v = View.extract grid55 ~r:2 12 in
       stage (fun () -> View.key_anonymous v));
    Test.make ~name:"E13/sync-flood-r2-grid5x5"
      (stage (fun () -> Sync_runner.run grid55 ~rounds:2));
    (* E3-E8: decoder evaluation throughput (all nodes of one instance) *)
    Test.make ~name:"E3/decode-degree-one-P8"
      (stage (fun () -> Decoder.run D_degree_one.decoder d1_inst));
    Test.make ~name:"E4/decode-even-cycle-C8"
      (stage (fun () -> Decoder.run D_even_cycle.decoder cyc_inst));
    Test.make ~name:"E5/decode-union-P8"
      (stage (fun () -> Decoder.run D_union.decoder union_inst));
    Test.make ~name:"E6/decode-shatter-P8"
      (stage (fun () -> Decoder.run D_shatter.decoder shatter_inst));
    Test.make ~name:"E7/decode-watermelon-[4;4;4]"
      (stage (fun () -> Decoder.run D_watermelon.decoder wm_inst));
    Test.make ~name:"E8/decode-trivial-grid3x3"
      (stage (fun () -> Decoder.run (D_trivial.decoder ~k:2) trivial_inst));
    Test.make ~name:"E8/decode-spanning-grid3x3"
      (stage (fun () -> Decoder.run D_spanning.decoder spanning_inst));
    (* provers *)
    Test.make ~name:"E3/prove-degree-one-P8"
      (stage (fun () -> D_degree_one.prover d1_inst));
    Test.make ~name:"E6/prove-shatter-P8"
      (stage (fun () -> D_shatter.prover shatter_inst));
    Test.make ~name:"E7/prove-watermelon-[4;4;4]"
      (stage (fun () -> D_watermelon.prover wm_inst));
    (* E3: certificate search on a no-instance *)
    Test.make ~name:"E3/search-certificates-C5"
      (let c5 = Instance.make (Builders.cycle 5) in
       stage (fun () ->
           Prover.find_accepted D_degree_one.decoder
             ~alphabet:D_degree_one.alphabet c5));
    (* E8: neighborhood graph construction + hiding verdicts *)
    Test.make ~name:"E8/build-V(degree-one,4)"
      (stage (fun () -> Neighborhood.build D_degree_one.decoder d1_family));
    Test.make ~name:"E8/hiding-verdict-degree-one"
      (stage (fun () -> Hiding.check ~k:2 D_degree_one.decoder d1_family));
    Test.make ~name:"E8/extract-coloring-C6"
      (let c6 = List.nth extraction_family 3 in
       stage (fun () -> Extractor.extract extractor c6));
    (* E9: realizability pipeline *)
    Test.make ~name:"E9/realize-G_bad"
      (let nbhd = Neighborhood.build accept_all rotation_instances in
       let cyc = Option.get (Neighborhood.odd_cycle nbhd) in
       let h = Realizability.of_neighborhood nbhd cyc in
       let pool =
         List.concat_map
           (fun i -> Array.to_list (View.extract_all i ~r:1))
           rotation_instances
       in
       stage (fun () -> Realizability.lemma_5_1 accept_all ~pool h));
    (* E10: walk surgery *)
    Test.make ~name:"E10/edge-expansion-C12"
      (let wm = Builders.watermelon [ 6; 6 ] in
       stage (fun () -> Nb_walks.edge_expansion wm ~r:1 ~u:2 ~v:3));
    Test.make ~name:"E10/repair-backtracking-theta"
      (let tour = Walks.splice [ 0; 2; 3; 4; 1; 7; 6; 5 ] 1 [ 2; 0 ] in
       stage (fun () -> Nb_walks.repair_backtracking theta tour));
    (* E11: Ramsey *)
    Test.make ~name:"E11/arrows-6-(3,3)"
      (stage (fun () -> Ramsey.arrows ~n:6 ~s:3 ~t:3));
    (* E12 is a size series (printed below); adversaries: *)
    Test.make ~name:"E3/strong-random-500-trials"
      (let inst = Instance.make (Builders.pendant (Builders.cycle 3) 0) in
       stage (fun () ->
           Checker.strong_soundness_random D_degree_one.suite ~k:2 ~trials:500 rng
             [ inst ]));
    (* E14: SLOCAL *)
    Test.make ~name:"E14/slocal-greedy-petersen"
      (let inst = Instance.make (Builders.petersen ()) in
       stage (fun () -> Slocal.execute_canonical (Slocal.greedy_coloring ~radius:1) inst));
    (* E15: quantified hiding (exact search over extractors) *)
    Test.make ~name:"E15/quantified-best-extractor-C4"
      (let fam =
         Neighborhood.exhaustive_family D_even_cycle.suite
           ~graphs:[ Builders.cycle 4 ] ~ports:`All ()
       in
       let nbhd = Neighborhood.build D_even_cycle.decoder fam in
       stage (fun () -> Quantified.best_extractor ~k:2 nbhd fam));
    (* E16: the k = 3 decoder *)
    Test.make ~name:"E16/decode-hidden-leaf3-P8"
      (let inst =
         Option.get
           (Decoder.certify (D_hidden_leaf.suite ~k:3)
              (Instance.make (Builders.path 8)))
       in
       stage (fun () -> Decoder.run (D_hidden_leaf.decoder ~k:3) inst));
    (* E20: the 1-bit 2-round decoder *)
    Test.make ~name:"E20/decode-edge-bit-C8"
      (let inst =
         Option.get (Decoder.certify D_edge_bit.suite (Instance.make (Builders.cycle 8)))
       in
       stage (fun () -> Decoder.run D_edge_bit.decoder inst));
    (* E18: resilient wrapper *)
    Test.make ~name:"E18/decode-resilient-grid3x3"
      (let res = Resilient.wrap (D_trivial.suite ~k:2) in
       let inst =
         Option.get (Decoder.certify res (Instance.make (Builders.grid 3 3)))
       in
       stage (fun () -> Decoder.run res.Decoder.dec inst));
    (* E13: async runner *)
    Test.make ~name:"E13/async-quiescence-C8"
      (let inst = Instance.make (Builders.cycle 8) in
       stage (fun () -> Async_runner.run_to_quiescence inst));
    (* serialization *)
    Test.make ~name:"codec/instance-json-roundtrip"
      (let inst =
         Option.get
           (Decoder.certify D_shatter.suite (Instance.make (Builders.path 8)))
       in
       stage (fun () ->
           Codec.instance_of_json (Codec.instance_to_json inst)));
    (* substrate *)
    Test.make ~name:"substrate/two-color-grid8x8"
      (let g = Builders.grid 8 8 in
       stage (fun () -> Coloring.two_color g));
    Test.make ~name:"substrate/odd-cycle-petersen"
      (let g = Builders.petersen () in
       stage (fun () -> Coloring.odd_cycle g));
    Test.make ~name:"substrate/diameter-grid8x8"
      (let g = Builders.grid 8 8 in
       stage (fun () -> Metrics.diameter g));
  ]

(* ------------------------------------------------------------------ *)
(* rows: the one record every series yields                            *)

(* One measured workload on one side of an A/B comparison. Walls are
   per rep; [per_op_ns] divides the median by the op count recorded in
   [params]. [counters] are deterministic tallies only. [identical] is
   [Some ok] on every side of a gated workload, [ok] being whether all
   sides agreed; [None] when the row carries no gate. *)
type row = {
  series : string;
  workload : string;
  layer : string;  (** the A/B side; [""] for a one-sided row *)
  params : (string * Json.t) list;
  reps : int;
  median_s : float;
  min_s : float;
  max_s : float;
  per_op_ns : float;
  counters : (string * int) list;
  identical : bool option;
}

let int_p k v = (k, Json.Int v)
let str_p k v = (k, Json.String v)

let row ~series ~workload ?(layer = "") ?(params = []) ?(counters = [])
    ~op:(op, ops) walls =
  let w = Array.copy walls in
  Array.sort compare w;
  let k = Array.length w in
  let median =
    if k mod 2 = 1 then w.(k / 2) else (w.((k / 2) - 1) +. w.(k / 2)) /. 2.
  in
  {
    series;
    workload;
    layer;
    params = params @ [ str_p "op" op; int_p "ops" ops ];
    reps = k;
    median_s = median;
    min_s = w.(0);
    max_s = w.(k - 1);
    per_op_ns = median *. 1e9 /. float_of_int (max 1 ops);
    counters;
    identical = None;
  }

(* A cfg's counters without the pool's per-worker task tallies, which
   observe the schedule and so vary with [jobs] and between runs. *)
let deterministic_counters cfg =
  List.filter
    (fun (k, _) -> not (String.starts_with ~prefix:"pool/" k))
    (Lcp_obs.Metrics.counters cfg.Run_cfg.metrics)

(* Run [f] [reps] times: the last result and the per-rep walls. *)
let measure ~reps f =
  let last = ref None in
  let walls =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        last := Some (f ());
        Unix.gettimeofday () -. t0)
  in
  (Option.get !last, walls)

(* Every A/B series proves its sides agree before a ratio is quoted.
   A divergence is recorded here instead of tripping an [assert]
   mid-run: the remaining series still execute and report, and the
   driver exits non-zero at the end, naming every divergent
   workload. *)
let divergences : string list ref = ref []

let gate ok rows =
  (match rows with
  | r :: _ when not ok ->
      divergences := Printf.sprintf "%s %s" r.series r.workload :: !divergences
  | _ -> ());
  List.map (fun r -> { r with identical = Some ok }) rows

(* The one table printer. The ratio column is each row's median over
   the median of its workload's first row; each later layer's ratios
   are summarized by their geometric mean. *)
let print_series title rows =
  Printf.printf "\n== %s\n" title;
  Printf.printf "%-34s %-10s %5s %11s %11s %11s %13s %8s %5s\n" "workload"
    "layer" "reps" "median(s)" "min(s)" "max(s)" "per-op(ns)" "ratio" "same";
  let first = Hashtbl.create 16 and ratios = Hashtbl.create 4 in
  List.iter
    (fun r ->
      let ratio =
        match Hashtbl.find_opt first r.workload with
        | None ->
            Hashtbl.add first r.workload r.median_s;
            "-"
        | Some base ->
            let x = r.median_s /. Float.max base 1e-12 in
            Hashtbl.replace ratios r.layer
              (x :: Option.value ~default:[] (Hashtbl.find_opt ratios r.layer));
            Printf.sprintf "%.2fx" x
      in
      Printf.printf "%-34s %-10s %5d %11.6f %11.6f %11.6f %13.1f %8s %5s\n"
        r.workload r.layer r.reps r.median_s r.min_s r.max_s r.per_op_ns ratio
        (match r.identical with Some b -> string_of_bool b | None -> "-");
      if r.counters <> [] then
        Printf.printf "    %s\n"
          (String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counters)))
    rows;
  Hashtbl.iter
    (fun layer xs ->
      if List.length xs >= 2 then
        Printf.printf "   geometric mean ratio, %s: %.2fx over %d workloads\n"
          layer
          (exp
             (List.fold_left (fun a x -> a +. log x) 0. xs
             /. float_of_int (List.length xs)))
          (List.length xs))
    ratios

let schema_version = 2
let out_dir = ref "."

let row_json r =
  let ns s = Json.Int (int_of_float (s *. 1e9)) in
  Json.Obj
    [
      ("series", Json.String r.series);
      ("workload", Json.String r.workload);
      ("layer", Json.String r.layer);
      ("params", Json.Obj r.params);
      ("reps", Json.Int r.reps);
      ("median_ns", ns r.median_s);
      ("min_ns", ns r.min_s);
      ("max_ns", ns r.max_s);
      ("per_op_ns", Json.Int (int_of_float r.per_op_ns));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ( "identical",
        match r.identical with Some b -> Json.Bool b | None -> Json.Null );
    ]

(* The one writer: DIR/BENCH_<series>.json, one row per line so that a
   re-recorded file diffs row by row. *)
let write_series ~fast series rows =
  let path = Filename.concat !out_dir ("BENCH_" ^ series ^ ".json") in
  let kv k v = Json.to_string (Json.String k) ^ ": " ^ Json.to_string v in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{%s, %s, %s,\n \"rows\": [\n  %s\n ]}\n"
        (kv "schema_version" (Json.Int schema_version))
        (kv "series" (Json.String series))
        (kv "fast" (Json.Bool fast))
        (String.concat ",\n  "
           (List.map (fun r -> Json.to_string (row_json r)) rows)));
  Printf.printf "%s series written to %s\n" series path

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks: one rep per bechamel sample, its wall    *)
(* divided by the sample's run count                                   *)

let series_micro ~fast () =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let label = Measure.label clock in
  let quota = Time.second (if fast then 0.05 else 0.5) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  List.concat_map
    (fun test ->
      Hashtbl.fold
        (fun name (b : Benchmark.t) acc ->
          let per_call =
            Array.map
              (fun m ->
                Measurement_raw.get ~label m /. Measurement_raw.run m *. 1e-9)
              b.Benchmark.lr
          in
          row ~series:"micro" ~workload:name ~op:("call", 1) per_call :: acc)
        (Benchmark.all cfg [ clock ] test)
        [])
    tests

(* ------------------------------------------------------------------ *)
(* printed series (the shape results the paper's artifacts map to)      *)

let series_neighborhood () =
  List.map
    (fun n ->
      let (fam, nbhd), walls =
        measure ~reps:1 (fun () ->
            let fam =
              Neighborhood.exhaustive_family D_even_cycle.suite
                ~graphs:[ Builders.cycle n ] ~ports:`All ()
            in
            (fam, Neighborhood.build D_even_cycle.decoder fam))
      in
      row ~series:"neighborhood"
        ~workload:(Printf.sprintf "even-cycle C%d" n)
        ~op:("instance", List.length fam)
        ~counters:
          [
            ("instances", List.length fam);
            ("order", Neighborhood.order nbhd);
            ("size", Neighborhood.size nbhd);
          ]
        walls)
    [ 4; 6; 8 ]

(* Honest certificate sizes in bits (E12); a decoder is absent from a
   row when the graph is outside its promise class at that size. *)
let series_cert_sizes () =
  let decoders =
    [
      ("trivial", D_trivial.suite ~k:2, Builders.path);
      ("degree-one", D_degree_one.suite, Builders.path);
      ("spanning", D_spanning.suite, Builders.path);
      ("shatter", D_shatter.suite, Builders.path);
      ("watermelon", D_watermelon.suite, fun n -> Builders.watermelon [ n; n ]);
    ]
  in
  List.map
    (fun n ->
      let bits, walls =
        measure ~reps:1 (fun () ->
            List.filter_map
              (fun (name, suite, graph) ->
                Option.map
                  (fun i -> (name, Labeling.max_bits i.Instance.labels))
                  (Decoder.certify suite (Instance.make (graph n))))
              decoders)
      in
      row ~series:"cert-bits" ~workload:(Printf.sprintf "n=%d" n)
        ~op:("certify", List.length decoders)
        ~counters:bits walls)
    [ 4; 8; 16; 32 ]

(* Exhaustive strong soundness (E3): the gate is the PASS verdict the
   paper's Lemma 4.1 promises, with every labeling counted once. The
   paths are rigid or nearly so; the cycle, the cliques and the star
   are quotiented by groups of order 16 to 40,320. *)
let series_strong_checks () =
  List.concat_map
    (fun (name, g) ->
      let labelings = Labeling.count ~alphabet:D_degree_one.alphabet g in
      let verdict, walls =
        measure ~reps:3 (fun () ->
            Checker.strong_soundness_exhaustive D_degree_one.suite ~k:2
              [ Instance.make g ])
      in
      gate
        (verdict = Checker.Pass { checked = labelings })
        [
          row ~series:"strong"
            ~workload:("degree-one " ^ name)
            ~op:("labeling", labelings)
            ~counters:[ ("labelings", labelings) ]
            walls;
        ])
    (List.map (fun n -> (Printf.sprintf "P%d" n, Builders.path n)) [ 3; 4; 5; 6 ]
    @ [
        ("C8", Builders.cycle 8);
        ("K7", Builders.complete 7);
        ("K8", Builders.complete 8);
        ("star:7", Builders.star 7);
      ])

(* Decoder throughput on large rings; the gate is completeness (the
   honest certificate is accepted everywhere). *)
let series_scaling () =
  List.concat_map
    (fun n ->
      let inst, prove =
        measure ~reps:1 (fun () ->
            Option.get
              (Decoder.certify D_even_cycle.suite
                 (Instance.make (Builders.cycle n))))
      in
      let ok, decode =
        measure ~reps:1 (fun () -> Decoder.accepts_all D_even_cycle.decoder inst)
      in
      let workload = Printf.sprintf "even-cycle C%d" n in
      gate ok
        [
          row ~series:"scaling" ~workload ~layer:"prove" ~op:("node", n) prove;
          row ~series:"scaling" ~workload ~layer:"decode" ~op:("node", n) decode;
        ])
    [ 100; 1000; 10000; 50000 ]

(* Flooding vs View.extract on random connected graphs (E13): the gate
   is that r rounds of flooding know exactly the radius-r view. The
   graphs come from their own seed, not from [rng], which the
   micro-benchmarks draw from a run-dependent number of times. *)
let series_sync () =
  let rng = Random.State.make [| 13 |] in
  List.concat_map
    (fun n ->
      let g = Builders.random_connected rng n 0.2 in
      let inst = Instance.random rng g in
      List.concat_map
        (fun r ->
          let ok, walls =
            measure ~reps:1 (fun () -> Sync_runner.knowledge_matches_view inst ~r)
          in
          gate ok
            [
              row ~series:"sync"
                ~workload:(Printf.sprintf "random n=%d r=%d" n r)
                ~op:("node", n)
                ~counters:[ ("messages", Sync_runner.messages_sent g ~rounds:r) ]
                walls;
            ])
        [ 1; 2 ])
    [ 8; 16; 24 ]

(* ------------------------------------------------------------------ *)
(* BENCH_enumerate: class enumeration, orderly generation vs the       *)
(* mask-scan oracle vs the pairwise-isomorphism oracle, all            *)
(* sequential so the rows compare enumerators, not parallelism. The    *)
(* mask scan stops at n = 7 (the n = 8 mask space is 2^28) and the     *)
(* pairwise dedup at n = 6 (quadratic in the class count). The n = 9   *)
(* orderly row (261,080 classes, seconds per rep) runs once, outside   *)
(* --fast.                                                             *)

let series_enumerate ~fast () =
  let cfg = Run_cfg.sequential bench_cfg in
  List.concat_map
    (fun n ->
      let side layer list =
        let reps = if n >= 9 || (n >= 7 && layer <> "orderly") then 1 else 3 in
        let classes, walls =
          measure ~reps (fun () ->
              Sweep.clear_cache ();
              list ())
        in
        let count = List.length classes in
        ( classes,
          row ~series:"enumerate" ~workload:(Printf.sprintf "n=%d" n) ~layer
            ~params:[ int_p "n" n; int_p "jobs" 1 ]
            ~op:("class", count)
            ~counters:[ ("classes", count) ]
            walls )
      in
      let sides =
        side "orderly" (fun () -> Sweep.iso_classes ~cfg n)
        :: (if n <= 7 then
              [
                side "mask-scan" (fun () ->
                    Lcp_oracle.Mask_scan.iso_classes ~cfg n);
              ]
            else [])
        @
        if n <= 6 then
          [
            side "pairwise" (fun () ->
                Lcp_oracle.Enumerate.connected_up_to_iso n);
          ]
        else []
      in
      let reference = fst (List.hd sides) in
      let rows = List.map snd sides in
      if List.length sides = 1 then rows
      else
        gate
          (List.for_all
             (fun (c, _) -> List.equal Graph.equal reference c)
             sides)
          rows)
    (if fast then [ 4; 5; 6 ] else [ 4; 5; 6; 7; 8; 9 ])

(* A certificate-search A/B over every connected non-bipartite class on
   [n] nodes, per decoder in [suites] and [n] in [sizes]. A side is
   (layer, verdict source, quotient); one rep searches every class once,
   sequentially. A row's [labelings] counter sums the tallies; [same]
   compares the two sides' (witness, tally) lists. *)
let search_ab ~series ~reps ~same ~a ~b suites sizes =
  let cfg = Run_cfg.sequential bench_cfg in
  List.concat_map
    (fun (name, (suite : Decoder.suite)) ->
      List.concat_map
        (fun n ->
          Sweep.clear_cache ();
          let inputs =
            List.filter_map
              (fun g ->
                if Coloring.is_bipartite g then None
                else
                  let inst = Instance.make g in
                  Some (inst, suite.Decoder.adversary_alphabet inst))
              (Sweep.iso_classes ~cfg n)
          in
          let side (layer, verdicts, quotient) =
            let results, walls =
              measure ~reps:(reps n) (fun () ->
                  List.map
                    (fun (inst, alphabet) ->
                      Oracle.search_accepted ~cfg ~verdicts ~quotient
                        suite.Decoder.dec ~alphabet inst)
                    inputs)
            in
            ( results,
              row ~series ~workload:(Printf.sprintf "%s n=%d" name n) ~layer
                ~params:
                  [
                    str_p "decoder" name;
                    int_p "n" n;
                    int_p "classes" (List.length inputs);
                    int_p "jobs" 1;
                  ]
                ~op:("class", List.length inputs)
                ~counters:
                  [ ("labelings", List.fold_left (fun a (_, t) -> a + t) 0 results) ]
                walls )
          in
          let ra, row_a = side a in
          let rb, row_b = side b in
          gate (same ra rb) [ row_a; row_b ])
        sizes)
    suites

(* ------------------------------------------------------------------ *)
(* BENCH_search: certificate search with per-node acceptance tables    *)
(* (the production source) vs direct view extraction (the oracle).     *)
(* Both sides must agree on every (witness, tally) pair.               *)

let series_search ~fast () =
  search_ab ~series:"search"
    ~reps:(fun _ -> 3)
    ~same:( = )
    ~a:("tables", Oracle.Tables, true)
    ~b:("direct", Oracle.Direct, true)
    [
      ("degree-one", D_degree_one.suite);
      ("even-cycle", D_even_cycle.suite);
      ("trivial2", D_trivial.suite ~k:2);
      ("edge-bit", D_edge_bit.suite);
    ]
    (if fast then [ 4; 5 ] else [ 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* BENCH_orbit: certificate search quotiented by Aut(G) node orbits    *)
(* (the default) vs the full-space search, both on acceptance tables.  *)
(* Witnesses must be bit-identical; tallies legitimately shrink under  *)
(* pruning, so they are counters, not compared. The decoders are the   *)
(* eligible ones with real per-class search volume: the trivial        *)
(* family's whole space is |Σ|^n = 64–128 evaluations, where the       *)
(* quotient has nothing to amortize (its correctness is pinned by      *)
(* test/test_orbit.ml). A pass over the n = 6 classes takes ~0.1 s, so *)
(* it repeats 20 times. The complete graphs K_n are each order's       *)
(* largest group (n! automorphisms), so their degree-one rows put the  *)
(* quotient's |Aut| scaling on record. Outside --fast, the full n = 8  *)
(* degree-one sweep runs against its two shards, whose kept counts     *)
(* must partition the full run's and whose verdicts must all pass.     *)

let series_orbit ~fast () =
  let ab =
    search_ab ~series:"orbit"
      ~reps:(fun n -> if n >= 7 then 3 else 20)
      ~same:(fun x y -> List.map fst x = List.map fst y)
      ~a:("orbit", Oracle.Tables, true)
      ~b:("direct", Oracle.Tables, false)
      [
        ("degree-one", D_degree_one.suite);
        ("hidden-leaf2", D_hidden_leaf.suite ~k:2);
        ("hidden-leaf3", D_hidden_leaf.suite ~k:3);
      ]
      (if fast then [ 5; 6 ] else [ 6; 7 ])
  in
  let complete =
    let cfg = Run_cfg.sequential bench_cfg in
    let suite = D_degree_one.suite in
    List.concat_map
      (fun n ->
        let g = Builders.complete n in
        let inst = Instance.make g in
        let alphabet = suite.Decoder.adversary_alphabet inst in
        let aut = Lcp_engine.Auto.size (Lcp_engine.Auto.of_graph g) in
        let side (layer, quotient) =
          let (witness, tally), walls =
            measure ~reps:3 (fun () ->
                Oracle.search_accepted ~cfg ~verdicts:Oracle.Tables ~quotient
                  suite.Decoder.dec ~alphabet inst)
          in
          ( witness,
            row ~series:"orbit" ~workload:(Printf.sprintf "degree-one K%d" n)
              ~layer
              ~params:
                [
                  str_p "decoder" "degree-one";
                  int_p "n" n;
                  int_p "aut" aut;
                  int_p "jobs" 1;
                ]
              ~op:("class", 1) ~counters:[ ("labelings", tally) ] walls )
        in
        let wa, row_a = side ("orbit", true) in
        let wb, row_b = side ("direct", false) in
        gate (wa = wb) [ row_a; row_b ])
      (if fast then [ 5; 6 ] else [ 7; 8; 9 ])
  in
  let shards =
    if fast then []
    else
      let n = 8 in
      let side layer shard =
        let s, walls =
          measure ~reps:1 (fun () ->
              Sweep.clear_cache ();
              Checker.soundness_sweep ~cfg:bench_cfg ?shard D_degree_one.suite ~n)
        in
        let kept = s.Sweep.counters.Sweep.kept in
        ( (kept, Checker.is_pass (Checker.verdict_of_sweep s)),
          row ~series:"orbit" ~workload:"degree-one n=8 sweep" ~layer
            ~params:[ int_p "n" n; int_p "jobs" bench_cfg.Run_cfg.jobs ]
            ~op:("class", kept) ~counters:[ ("kept", kept) ] walls )
      in
      let (kept, pass), full = side "full" None in
      let (kept0, pass0), s0 = side "shard 0/2" (Some (0, 2)) in
      let (kept1, pass1), s1 = side "shard 1/2" (Some (1, 2)) in
      gate (kept0 + kept1 = kept && pass && pass0 && pass1) [ full; s0; s1 ]
  in
  ab @ complete @ shards

(* ------------------------------------------------------------------ *)
(* BENCH_sweep: the engine soundness sweep at jobs=1 vs jobs>=2. The   *)
(* parallel side never runs at one job, so the jobs-invariance gate    *)
(* (same verdict, same counters) compares two schedules even on a      *)
(* one-core host.                                                      *)

let series_sweep ~fast () =
  let par_jobs = max 2 bench_cfg.Run_cfg.jobs in
  List.concat_map
    (fun n ->
      let workload = Printf.sprintf "degree-one n=%d" n in
      let side jobs =
        let (s, counters), walls =
          measure ~reps:3 (fun () ->
              Sweep.clear_cache ();
              let cfg = Run_cfg.make ~seed:424242 ~jobs () in
              let s = Checker.soundness_sweep ~cfg D_degree_one.suite ~n in
              (s, deterministic_counters cfg))
        in
        ( (Checker.verdict_of_sweep s, s.Sweep.counters, counters),
          row ~series:"sweep" ~workload
            ~layer:(Printf.sprintf "jobs=%d" jobs)
            ~params:[ int_p "n" n; int_p "jobs" jobs ]
            ~op:("class", s.Sweep.counters.Sweep.kept)
            ~counters walls )
      in
      let seq, seq_row = side 1 in
      let par, par_row = side par_jobs in
      gate (seq = par) [ seq_row; par_row ])
    (if fast then [ 4; 5 ] else [ 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* BENCH_serve: request latency against a live lcp serve daemon on a   *)
(* temp socket, cold (first request, caches empty) vs warm (repeats    *)
(* against the daemon's persistent class and acceptance-table caches). *)
(* The ping row is the protocol overhead. Every warm result must equal *)
(* the cold one once cache-temperature and timing fields are dropped.  *)

let series_serve ~fast () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp-bench-%d.sock" (Unix.getpid ()))
  in
  Sweep.clear_cache ();
  let server =
    Lcp_serve.Server.start (Lcp_serve.Server.default_config ~socket_path)
  in
  let det = function
    | Json.Obj fields ->
        Json.to_string
          (Json.Obj
             (List.filter
                (fun (k, _) -> not (List.mem k [ "cache"; "wall_ms"; "uptime_ms" ]))
                fields))
    | j -> Json.to_string j
  in
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Lcp_serve.Server.stop server;
        Lcp_serve.Server.wait server)
      (fun () ->
        Lcp_serve.Client.with_connection socket_path (fun c ->
            let one req =
              match Lcp_serve.Client.request c req with
              | Ok { Protocol.status = Protocol.Done; result; _ } -> det result
              | Ok r ->
                  failwith
                    ("bench request failed: " ^ Protocol.status_name r.Protocol.status)
              | Error e -> failwith e
            in
            List.concat_map
              (fun (workload, kind, count) ->
                let req = { Protocol.kind; opts = Protocol.default_opts } in
                let cold, cold_walls = measure ~reps:1 (fun () -> one req) in
                let same = ref true in
                let (), warm_walls =
                  measure ~reps:count (fun () ->
                      if one req <> cold then same := false)
                in
                let side layer walls =
                  row ~series:"serve" ~workload ~layer ~op:("request", 1) walls
                in
                gate !same [ side "cold" cold_walls; side "warm" warm_walls ])
              [
                ("ping", Protocol.Ping, if fast then 50 else 500);
                ( "check degree-one C5",
                  Protocol.Check { decoder = "degree-one"; graph = "cycle:5" },
                  if fast then 10 else 50 );
                ( "sweep degree-one n=5",
                  Protocol.Sweep
                    {
                      decoder = "degree-one";
                      n = 5;
                      strategy = "orderly";
                      early_exit = false;
                      shards = 1;
                    },
                  if fast then 5 else 25 );
              ]))
  in
  Sweep.clear_cache ();
  rows

(* ------------------------------------------------------------------ *)
(* BENCH_coord: the coordinator at one fixed partition (degree-one,    *)
(* shards=4, n=8; n=6 under --fast). The raw row forks the four shard  *)
(* subprocesses with no supervision (the manual recipe the coordinator *)
(* replaces) and prices its overhead; supervised runs at 1 / 2 / 4     *)
(* workers give the scaling curve; the recovery row SIGKILLs one       *)
(* worker mid-sweep to price restart-from-checkpoint. Every merged     *)
(* report must be byte-identical. Needs the sibling lcp binary.        *)

let series_coord ~fast () =
  let bin =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"
  in
  if not (Sys.file_exists bin) then begin
    Printf.printf "\n== coord series skipped (%s not built)\n" bin;
    []
  end
  else begin
    let n = if fast then 6 else 8 in
    let shards = 4 in
    let in_fresh_dir f =
      let dir = Filename.temp_dir "lcp-bench-coord" "" in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (Sys.readdir dir);
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        (fun () -> f dir)
    in
    let report j = Json.to_string_pretty j in
    let coord ?inject_kill ~workers () =
      in_fresh_dir @@ fun dir ->
      let config =
        {
          (Lcp_serve.Coordinator.default_config ~decoder:"degree-one" ~n ~shards
             ~dir)
          with
          Lcp_serve.Coordinator.workers;
          executor = Lcp_serve.Coordinator.Subprocess { bin };
          inject_kill;
        }
      in
      match Lcp_serve.Coordinator.run config with
      | Error msg -> failwith ("bench coord: " ^ msg)
      | Ok o ->
          ( report o.Lcp_serve.Coordinator.report,
            [
              ("launched", o.Lcp_serve.Coordinator.launched);
              ("restarts", o.Lcp_serve.Coordinator.restarts);
            ] )
    in
    (* the manual recipe: all four shard shells at once, no supervisor *)
    let raw () =
      in_fresh_dir @@ fun dir ->
      let shard_path i = Filename.concat dir (Printf.sprintf "shard-%d.json" i) in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pids =
        List.init shards (fun i ->
            Unix.create_process bin
              [|
                bin; "sweep"; "degree-one";
                "-n"; string_of_int n;
                "-j"; "1";
                "--shards"; string_of_int shards;
                "--shard"; string_of_int i;
                "--checkpoint"; shard_path i;
              |]
              devnull devnull devnull)
      in
      List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
      Unix.close devnull;
      let cks =
        List.init shards (fun i ->
            match Lcp_engine.Checkpoint.load (shard_path i) with
            | Ok ck -> ck
            | Error e -> failwith ("bench coord raw: " ^ e))
      in
      match Lcp_engine.Checkpoint.merge cks with
      | Error e -> failwith ("bench coord raw merge: " ^ e)
      | Ok merged ->
          (report (Lcp_engine.Checkpoint.report_json merged), [ ("launched", shards) ])
    in
    let side layer ~workers run =
      let (report, counters), walls = measure ~reps:1 run in
      ( report,
        row ~series:"coord"
          ~workload:(Printf.sprintf "degree-one n=%d shards=%d" n shards)
          ~layer
          ~params:[ int_p "n" n; int_p "shards" shards; int_p "workers" workers ]
          ~op:("shard", shards) ~counters walls )
    in
    let sides =
      side "raw" ~workers:shards raw
      :: List.map
           (fun w ->
             side (Printf.sprintf "workers=%d" w) ~workers:w (coord ~workers:w))
           [ 1; 2; 4 ]
      @ [ side "recovery" ~workers:4 (coord ~inject_kill:0 ~workers:4) ]
    in
    let raw_report = fst (List.hd sides) in
    gate
      (List.for_all (fun (r, _) -> String.equal r raw_report) sides)
      (List.map snd sides)
  end

(* ------------------------------------------------------------------ *)
(* BENCH_race: what the instrumented sync layer costs. The disarmed    *)
(* side is the price every ordinary run pays for the tracing hooks     *)
(* (one relaxed Atomic.get branch per operation); the armed side is    *)
(* the price lcp race pays while recording (period 0: tracing without  *)
(* perturbation pauses). Each armed rep is its own trace session, so   *)
(* the recorded trace never outgrows one rep.                          *)

let series_race ~fast () =
  let module Sync = Lcp_obs.Sync in
  let iters = if fast then 200_000 else 1_000_000 in
  let reps = 3 in
  (* the gate: one rep moves [read] by the same amount on both sides,
     i.e. recording loses no operation *)
  let ops name op read =
    let loop () =
      let before = read () in
      for _ = 1 to iters do
        op ()
      done;
      read () - before
    in
    let disarmed_delta, disarmed = measure ~reps loop in
    let armed =
      Array.init reps (fun _ ->
          Sync.arm ~perturb:{ Sync.pseed = 0; period = 0 } ();
          let delta, walls = measure ~reps:1 loop in
          ignore (Sync.disarm ());
          (delta, walls.(0)))
    in
    gate
      (Array.for_all (fun (d, _) -> d = disarmed_delta) armed)
      (List.map
         (fun (layer, walls) ->
           row ~series:"race" ~workload:name ~layer ~op:("op", iters) walls)
         [ ("disarmed", disarmed); ("armed", Array.map snd armed) ])
  in
  let m = Sync.mutex "bench/race.lock" in
  let held = ref 0 in
  let a = Sync.A.make "bench/race.counter" 0 in
  let v = Sync.Var.make "bench/race.var" 0 in
  ops "with_lock" (fun () -> Sync.with_lock m (fun () -> incr held)) (fun () -> !held)
  @ ops "atomic_incr" (fun () -> Sync.A.incr a) (fun () -> Sync.A.get a)
  @ ops "var_set" (fun () -> Sync.Var.set v 1) (fun () -> Sync.Var.get v)

(* ------------------------------------------------------------------ *)
(* BENCH_large (--large only): graph-build throughput, sampled         *)
(* certification throughput and the CSR-vs-list traversal A/B on       *)
(* 10^5..10^6-node instances. The list side materializes a fresh       *)
(* neighbor list per query, the seed representation's access pattern, *)
(* so its ratio is the cross-change baseline for substrate changes.    *)

(* Traversal workload: sum of neighbor ids over every node. *)
let traverse_csr g =
  let acc = ref 0 in
  for v = 0 to Graph.order g - 1 do
    Graph.iter_neighbors (fun w -> acc := !acc + w) g v
  done;
  !acc

let traverse_list g =
  let acc = ref 0 in
  for v = 0 to Graph.order g - 1 do
    List.iter (fun w -> acc := !acc + w) (Graph.fold_neighbors List.cons g v [])
  done;
  !acc

(* One traversal A/B: list then CSR, [passes] passes over [graphs] per
   rep; the gate is equal neighbor-id sums. *)
let traversal_ab ~workload ~params ~reps ~passes graphs =
  let nodes = passes * List.fold_left (fun a g -> a + Graph.order g) 0 graphs in
  let side layer traverse =
    let sum, walls =
      measure ~reps (fun () ->
          let acc = ref 0 in
          for _ = 1 to passes do
            List.iter (fun g -> acc := !acc + traverse g) graphs
          done;
          !acc)
    in
    (sum, row ~series:"large" ~workload ~layer ~params ~op:("node", nodes) walls)
  in
  let list_sum, list_row = side "list" traverse_list in
  let csr_sum, csr_row = side "csr" traverse_csr in
  gate (list_sum = csr_sum) [ list_row; csr_row ]

let series_large ~fast () =
  let sizes = if fast then [ 100_000 ] else [ 100_000; 1_000_000 ] in
  let builds =
    List.concat_map
      (fun model ->
        List.map
          (fun nodes ->
            let g, walls =
              measure ~reps:1 (fun () ->
                  match
                    Random_graphs.of_model (Random.State.make [| 7; nodes |])
                      ~nodes model
                  with
                  | Ok g -> g
                  | Error msg -> failwith msg)
            in
            ( (model, g),
              row ~series:"large"
                ~workload:(Printf.sprintf "build %s n=%d" model nodes)
                ~params:[ str_p "model" model; int_p "nodes" nodes ]
                ~op:("node", Graph.order g)
                ~counters:[ ("nodes", Graph.order g); ("edges", Graph.size g) ]
                walls ))
          sizes)
      [ "gnp"; "ba" ]
  in
  let g_big =
    List.fold_left
      (fun acc (model, g) ->
        if model = "gnp" && Graph.order g > Graph.order acc then g else acc)
      (Graph.empty 0)
      (List.map fst builds)
  in
  let big = Graph.order g_big in
  let traversal =
    traversal_ab
      ~workload:(Printf.sprintf "traverse gnp n=%d" big)
      ~params:[ int_p "nodes" big ] ~reps:5 ~passes:1 [ g_big ]
  in
  (* sampled certification through the standard phases *)
  let cfg = Run_cfg.make ~seed:7 () in
  let report, walls =
    measure ~reps:1 (fun () ->
        Sampling.run ~eval_nodes:50_000 ~trials:4 ~pairs:1_000 ~cfg
          ~decoder:"trivial2" ~model:"gnp" (D_trivial.suite ~k:2) g_big)
  in
  let sample =
    row ~series:"large"
      ~workload:(Printf.sprintf "sample trivial2 gnp n=%d" big)
      ~params:[ int_p "nodes" big; int_p "jobs" cfg.Run_cfg.jobs ]
      ~op:
        ( "evaluated node",
          match report.Sampling.completeness with
          | Some c -> c.Sampling.evaluated
          | None -> 0 )
      ~counters:(deterministic_counters cfg)
      walls
  in
  (* the same traversal over the whole n=8 (n=7 under --fast) class
     corpus, 200 passes per rep *)
  let n = if fast then 7 else 8 in
  let classes = Sweep.iso_classes ~cfg:(Run_cfg.sequential cfg) n in
  let corpus =
    traversal_ab
      ~workload:(Printf.sprintf "traverse n=%d classes x200" n)
      ~params:[ int_p "n" n; int_p "classes" (List.length classes) ]
      ~reps:3 ~passes:200 classes
  in
  List.map snd builds @ traversal @ [ sample ] @ corpus

(* ------------------------------------------------------------------ *)

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let large = Array.exists (fun a -> a = "--large") Sys.argv in
  Array.iteri
    (fun i a ->
      if a = "--out-dir" && i + 1 < Array.length Sys.argv then
        out_dir := Sys.argv.(i + 1))
    Sys.argv;
  (* the records are written after their series run; a missing DIR
     would otherwise surface only then, with nothing written *)
  if not (Sys.file_exists !out_dir && Sys.is_directory !out_dir) then begin
    Printf.eprintf "bench: --out-dir %s is not a directory\n" !out_dir;
    exit 2
  end;
  Printf.printf "LCP benchmark harness%s\n%!" (if fast then " [fast]" else "");
  let report ?(write = true) title rows =
    print_series title rows;
    match rows with
    | r :: _ when write -> write_series ~fast r.series rows
    | _ -> ()
  in
  if large then
    (* --large runs ONLY the large series: CI's large-smoke step, not
       part of the default bench *)
    report "large sampled workload (CSR substrate)" (series_large ~fast ())
  else begin
    let printed = report ~write:false in
    printed "micro-benchmarks (bechamel)" (series_micro ~fast ());
    printed "|V(D,n)| for the even-cycle decoder on C_n (E4/E8)"
      (series_neighborhood ());
    printed "honest certificate sizes in bits (E12)" (series_cert_sizes ());
    printed "exhaustive strong-soundness cost, degree-one decoder (E3)"
      (series_strong_checks ());
    printed "decoder throughput on large rings" (series_scaling ());
    printed "flooding vs View.extract, random connected graphs (E13)"
      (series_sync ());
    report "class enumeration: orderly vs mask scan vs pairwise"
      (series_enumerate ~fast ());
    report "certificate search: acceptance tables vs direct decoding"
      (series_search ~fast ());
    report "certificate search: orbit pruning vs direct; sharded n=8 sweep"
      (series_orbit ~fast ());
    report "engine soundness sweep, degree-one: jobs=1 vs jobs>=2"
      (series_sweep ~fast ());
    report "lcp serve request latency, cold vs warm" (series_serve ~fast ());
    report "coordinated soundness sweep, degree-one" (series_coord ~fast ());
    report "sync instrumentation overhead, disarmed vs armed"
      (series_race ~fast ())
  end;
  match List.rev !divergences with
  | [] -> Printf.printf "\nbench done.\n"
  | ds ->
      Printf.printf "\nbench FAILED: %d A/B divergence(s): %s\n"
        (List.length ds) (String.concat ", " ds);
      exit 1
