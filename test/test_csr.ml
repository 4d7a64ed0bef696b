(* The CSR substrate contract: flat-array traversal agrees with the
   derived list API, port order (= CSR row order = ascending neighbor
   id) survives every graph-producing operation, construction is
   O(n + m) with the seed's validation intact, the seeded random-graph
   generators are deterministic, and the sampled phases tally
   identically for jobs = 1 and jobs = N. *)

open Lcp_graph
open Helpers

(* G(n, p) with p = avg_degree / (n - 1), through the model grammar *)
let gnp_avg_degree seed n avg_degree =
  Result.get_ok
    (Random_graphs.of_model (Random.State.make [| seed |]) ~nodes:n
       (Printf.sprintf "gnp:%g" avg_degree))

(* ------------------------------------------------------------------ *)
(* CSR / list agreement                                                 *)

let agreement_graphs () =
  [
    Graph.empty 0;
    Graph.empty 3;
    p4 ();
    c6 ();
    k4 ();
    Builders.petersen ();
    Builders.star 5;
    gnp (rng ()) 12 ~p:0.4;
  ]

let test_traversal_agreement () =
  List.iter
    (fun g ->
      for v = 0 to Graph.order g - 1 do
        let by_array = Array.to_list (Graph.neighbors_array g v) in
        let by_fold =
          List.rev (Graph.fold_neighbors (fun w acc -> w :: acc) g v [])
        in
        let by_iter =
          let r = ref [] in
          Graph.iter_neighbors (fun w -> r := w :: !r) g v;
          List.rev !r
        in
        let by_nth =
          List.init (Graph.degree g v) (Graph.nth_neighbor g v)
        in
        Alcotest.(check int_list) "fold = array" by_array by_fold;
        Alcotest.(check int_list) "iter = array" by_array by_iter;
        Alcotest.(check int_list) "nth = array" by_array by_nth;
        check_int "degree = length" (List.length by_array) (Graph.degree g v)
      done)
    (agreement_graphs ())

let test_rows_ascending () =
  List.iter
    (fun g ->
      for v = 0 to Graph.order g - 1 do
        let row = Graph.neighbors_array g v in
        Array.iteri
          (fun i w ->
            if i > 0 then
              check_bool "strictly ascending" true (row.(i - 1) < w);
            check_bool "no self-loop" true (w <> v))
          row
      done)
    (agreement_graphs ())

let test_rank_and_predicates () =
  let g = Builders.petersen () in
  for v = 0 to Graph.order g - 1 do
    List.iteri
      (fun i w ->
        Alcotest.(check (option int))
          "rank inverts nth" (Some i)
          (Graph.neighbor_rank g v w);
        check_bool "mem_edge" true (Graph.mem_edge g v w);
        check_bool "exists" true (Graph.exists_neighbor (Int.equal w) g v))
      (Array.to_list (Graph.neighbors_array g v));
    Alcotest.(check (option int)) "rank of non-neighbor" None
      (Graph.neighbor_rank g v v)
  done;
  check_bool "for_all" true
    (Graph.for_all_neighbors (fun w -> w <> 0) g 7)

(* ------------------------------------------------------------------ *)
(* port order survives graph-producing operations                       *)

let ports g = Array.init (Graph.order g) (Graph.neighbors_array g)

let test_port_order_relabel () =
  let g = gnp (rng ()) 10 ~p:0.4 in
  let perm = [| 3; 1; 4; 0; 9; 2; 6; 8; 7; 5 |] in
  let h = Lcp_oracle.Enumerate.relabel g perm in
  Array.iter
    (fun row ->
      Array.iteri
        (fun i w -> if i > 0 then check_bool "ascending" true (row.(i - 1) < w))
        row)
    (ports h);
  (* the edge relation is the permuted one *)
  Graph.iter_edges
    (fun u v -> check_bool "edge mapped" true (Graph.mem_edge h perm.(u) perm.(v)))
    g

let test_port_order_induced () =
  let g = Builders.petersen () in
  let h, _ = Graph.induced g [ 9; 0; 3; 2; 7; 4 ] in
  check_int "order" 6 (Graph.order h);
  Array.iter
    (fun row ->
      Array.iteri
        (fun i w -> if i > 0 then check_bool "ascending" true (row.(i - 1) < w))
        row)
    (ports h)

let test_port_order_disjoint_union () =
  let g = Graph.disjoint_union (c5 ()) (Builders.star 3) in
  check_int "order" 9 (Graph.order g);
  Array.iter
    (fun row ->
      Array.iteri
        (fun i w -> if i > 0 then check_bool "ascending" true (row.(i - 1) < w))
        row)
    (ports g);
  (* right block is the star, shifted by 5 *)
  Alcotest.(check (array int)) "star center row" [| 6; 7; 8 |]
    (Graph.neighbors_array g 5)

(* ------------------------------------------------------------------ *)
(* construction: validation, dedup, O(n + m) scale                      *)

let test_of_edges_validation () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.of_edges: edge (0,5) out of range [0,2)")
    (fun () -> ignore (Graph.of_edges 2 [ (0, 1); (0, 5) ]));
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.of_edges: self-loop at 1") (fun () ->
      ignore (Graph.of_edges 3 [ (1, 1) ]));
  let g = Graph.of_edges 3 [ (2, 1); (1, 2); (0, 2); (2, 0); (2, 1) ] in
  check_int "duplicates collapsed" 2 (Graph.size g)

let test_of_bitsets () =
  (* the rows of every agreement graph rebuild it exactly: same CSR,
     so Graph.equal is array equality *)
  List.iter
    (fun g ->
      let rows =
        Array.init (Graph.order g) (fun v ->
            Graph.fold_neighbors (fun w row -> row lor (1 lsl w)) g v 0)
      in
      check_graph "of_bitsets = of_edges" g (Graph.of_bitsets rows))
    (agreement_graphs ());
  List.iter
    (fun (what, rows) ->
      match Graph.of_bitsets rows with
      | _ -> Alcotest.fail (what ^ ": accepted")
      | exception Invalid_argument _ -> ())
    [
      ("self-loop", [| 0b01; 0b00 |]);
      ("one-sided edge", [| 0b10; 0b00 |]);
      ("bit past the order", [| 0b100; 0b000 |]);
    ]

let test_builder () =
  let b = Graph.Builder.create ~size_hint:1 4 in
  Graph.Builder.add_edge b 3 0;
  Graph.Builder.add_edge b 1 3;
  Graph.Builder.add_edge b 0 3;
  (* duplicate, either orientation *)
  let g = Graph.Builder.graph b in
  check_graph "same as of_edges" (Graph.of_edges 4 [ (0, 3); (1, 3) ]) g;
  Alcotest.check_raises "builder validates"
    (Invalid_argument "Graph.Builder.add_edge: self-loop at 2") (fun () ->
      Graph.Builder.add_edge b 2 2)

let test_big_build () =
  (* a 60k-node, ~120k-edge build must be effectively instant; the
     pre-CSR sort-per-node construction would be visibly slow here *)
  let n = 60_000 in
  let b = Graph.Builder.create ~size_hint:(2 * n) n in
  for v = 1 to n - 1 do
    Graph.Builder.add_edge b (v - 1) v;
    Graph.Builder.add_edge b (v / 2) v
  done;
  let g = Graph.Builder.graph b in
  check_int "order" n (Graph.order g);
  check_bool "path edge" true (Graph.mem_edge g 0 1);
  check_bool "connected" true (Graph.is_connected g);
  check_int "edges dedup"
    (Graph.size g)
    (List.length (Graph.edges g))

(* ------------------------------------------------------------------ *)
(* seeded generators                                                    *)

let test_random_graphs_deterministic () =
  List.iter
    (fun model ->
      let mk seed =
        match
          Random_graphs.of_model (Random.State.make [| seed |]) ~nodes:3_000
            model
        with
        | Ok g -> g
        | Error msg -> Alcotest.fail msg
      in
      check_graph (model ^ " same seed") (mk 7) (mk 7);
      check_bool
        (model ^ " different seed")
        (model = "grid")
        (Graph.equal (mk 7) (mk 8)))
    [ "gnp"; "gnp:2.5"; "ba"; "ba:2"; "tree"; "grid" ]

(* Pinned output of fixed seeds: the builder's size hint (or anything
   else about how the edges are stored) must not change which edges a
   seed draws. *)
let test_gnp_pinned_edges () =
  let g = gnp (Random.State.make [| 5 |]) 12 ~p:0.3 in
  check_bool "gnp n=12 p=0.3 seed 5: pinned edge set" true
    (Graph.edges g
    = [
        (0, 2); (0, 4); (0, 6); (0, 10); (0, 11); (1, 2); (1, 6); (1, 7);
        (1, 8); (1, 11); (2, 5); (2, 7); (3, 4); (4, 6); (4, 10); (5, 9);
        (5, 11); (6, 8); (8, 9); (9, 10);
      ]);
  let big =
    gnp_avg_degree 21 20_000 8.
  in
  let buf = Buffer.create (1 lsl 20) in
  Graph.iter_edges (fun u v -> Buffer.add_string buf (Printf.sprintf "%d-%d," u v)) big;
  check_int "gnp n=20000 seed 21: edge count" 79_989 (Graph.size big);
  Alcotest.(check string)
    "gnp n=20000 seed 21: edge-set digest" "06aec1fde2bae364f70075416fbc8bb9"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  (* 2,015 edges drawn against an expected 1,990: past an
     [expected + 16] hint, so a builder sized that way regrows its
     edge arrays mid-build, which must not change the edges either *)
  let over = gnp (Random.State.make [| 4 |]) 200 ~p:0.1 in
  Buffer.clear buf;
  Graph.iter_edges (fun u v -> Buffer.add_string buf (Printf.sprintf "%d-%d," u v)) over;
  check_int "gnp n=200 p=0.1 seed 4: edge count" 2_015 (Graph.size over);
  Alcotest.(check string)
    "gnp n=200 p=0.1 seed 4: edge-set digest" "ad2b348eef4a59f20086adbe56b8670e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_model_errors () =
  List.iter
    (fun spec ->
      match
        Random_graphs.of_model (Random.State.make [| 1 |]) ~nodes:10 spec
      with
      | Ok _ -> Alcotest.fail ("accepted bad spec " ^ spec)
      | Error _ -> ())
    [ "wat"; "gnp:zz"; "ba:0"; "gnp:-1" ]

let test_double_cover () =
  let g = Builders.petersen () in
  let dc = Builders.double_cover g in
  check_int "order doubles" 20 (Graph.order dc);
  check_int "size doubles" (2 * Graph.size g) (Graph.size dc);
  check_bool "bipartite" true (Coloring.is_bipartite dc);
  check_bool "connected (g non-bipartite)" true (Graph.is_connected dc);
  (* the double cover of a bipartite graph is disconnected *)
  check_bool "bipartite input splits" false
    (Graph.is_connected (Builders.double_cover (c6 ())))

(* The CSR-built cover equals the cover built from its definition:
   every edge {u,v} lifts to {u, v+n} and {v, u+n}. Edgeless graphs,
   isolated nodes (p = 0.05 at small n, and padded unions) and the
   empty graph included. *)
let test_double_cover_lifted_edges () =
  let rng = Random.State.make [| 2024 |] in
  let lifted g =
    let n = Graph.order g in
    Graph.of_edges (2 * n)
      (List.concat_map (fun (u, v) -> [ (u, v + n); (v, u + n) ]) (Graph.edges g))
  in
  for n = 0 to 40 do
    List.iter
      (fun p ->
        let g = gnp rng n ~p in
        List.iter
          (fun g ->
            check_graph
              (Printf.sprintf "n=%d p=%g order %d" n p (Graph.order g))
              (lifted g) (Builders.double_cover g))
          [ g; Graph.disjoint_union g (Graph.empty 3) ])
      [ 0.; 0.05; 0.3; 0.8 ]
  done

(* ------------------------------------------------------------------ *)
(* sampled phases: jobs-invariance                                      *)

let strip_report r =
  let open Lcp.Sampling in
  {
    r with
    build_wall_ns = 0;
    completeness = Option.map (fun c -> { c with c_wall_ns = 0 }) r.completeness;
    soundness = Option.map (fun s -> { s with s_wall_ns = 0 }) r.soundness;
    hiding = Option.map (fun h -> { h with h_wall_ns = 0 }) r.hiding;
  }

let test_sampling_jobs_invariant () =
  let g =
    gnp_avg_degree 13 400 4.
  in
  let run jobs =
    let cfg = Lcp_obs.Run_cfg.make ~jobs ~seed:13 () in
    strip_report
      (Lcp.Sampling.run ~eval_nodes:150 ~trials:4 ~pairs:60 ~cfg
         ~decoder:"trivial2" ~model:"gnp" (Lcp.D_trivial.suite ~k:2) g)
  in
  let r1 = run 1 and r4 = run 4 in
  check_bool "jobs=1 = jobs=4" true (r1 = r4);
  (* the tallies themselves, pinned *)
  let open Lcp.Sampling in
  check_bool "pinned report" true
    (r1
    = {
        decoder = "trivial2";
        model = "gnp";
        seed = 13;
        nodes = 400;
        edges = 812;
        build_wall_ns = 0;
        completeness =
          Some
            {
              instance = "bipartite double cover";
              c_nodes = 800;
              c_edges = 1624;
              evaluated = 150;
              accepted = 150;
              c_wall_ns = 0;
            };
        soundness =
          Some
            {
              applicable = true;
              trials = 4;
              rejected_trials = 4;
              probes = 6;
              accepting_trials = 0;
              s_wall_ns = 0;
            };
        hiding =
          Some
            {
              pairs = 60;
              structural_collisions = 0;
              structural_matches = 0;
              certified_collisions = 0;
              h_wall_ns = 0;
            };
        violations = 0;
      });
  (* and the phases actually ran *)
  check_bool "completeness ran" true (r1.Lcp.Sampling.completeness <> None);
  (match r1.Lcp.Sampling.completeness with
  | Some c ->
      check_int "all sampled nodes accept" c.Lcp.Sampling.evaluated
        c.Lcp.Sampling.accepted
  | None -> ());
  check_int "no violations" 0 r1.Lcp.Sampling.violations

let test_sampling_deterministic () =
  let g =
    gnp_avg_degree 21 300 3.
  in
  let run () =
    let cfg = Lcp_obs.Run_cfg.make ~jobs:2 ~seed:21 () in
    strip_report
      (Lcp.Sampling.run ~eval_nodes:100 ~trials:3 ~pairs:40 ~cfg
         ~decoder:"trivial2" ~model:"gnp" (Lcp.D_trivial.suite ~k:2) g)
  in
  check_bool "same seed, same report" true (run () = run ())

let trivial2_run ?(jobs = 1) ?(seed = 5) ?(pairs = 50) ?(suite = Lcp.D_trivial.suite ~k:2)
    ~model g =
  let cfg = Lcp_obs.Run_cfg.make ~jobs ~seed () in
  strip_report
    (Lcp.Sampling.run ~eval_nodes:100 ~trials:3 ~pairs ~cfg ~decoder:"trivial2"
       ~model suite g)

(* The yes-instance is certified once per run: one honest prover call
   serves both the completeness and the hiding phase. *)
let test_sampling_one_prover_call () =
  let base = Lcp.D_trivial.suite ~k:2 in
  let calls = ref 0 in
  let suite =
    {
      base with
      Lcp.Decoder.prover =
        (fun inst ->
          incr calls;
          base.Lcp.Decoder.prover inst);
    }
  in
  List.iter
    (fun (model, g) ->
      calls := 0;
      let r = trivial2_run ~suite ~model g in
      check_bool (model ^ ": hiding ran") true (r.Lcp.Sampling.hiding <> None);
      check_int (model ^ ": one prover call") 1 !calls)
    [
      ("gnp", gnp_avg_degree 3 300 4.);
      ("tree", random_tree (Random.State.make [| 3 |]) 300);
    ]

(* A bipartite model graph is its own yes-instance: soundness does not
   apply, and the hiding phase probes the model graph itself. *)
let test_sampling_model_graph () =
  List.iter
    (fun model ->
      let g =
        match Random_graphs.of_model (Random.State.make [| 5 |]) ~nodes:300 model with
        | Ok g -> g
        | Error msg -> Alcotest.fail msg
      in
      let r1 = trivial2_run ~model g and r4 = trivial2_run ~jobs:4 ~model g in
      check_bool (model ^ ": jobs=1 = jobs=4") true (r1 = r4);
      let open Lcp.Sampling in
      (match r1.completeness with
      | Some c ->
          Alcotest.(check string) (model ^ ": instance") "model graph" c.instance;
          check_int (model ^ ": yes-instance order") (Graph.order g) c.c_nodes;
          check_int (model ^ ": all accept") c.evaluated c.accepted
      | None -> Alcotest.fail "no completeness phase");
      (match r1.soundness with
      | Some s -> check_bool (model ^ ": soundness not applicable") false s.applicable
      | None -> Alcotest.fail "no soundness phase");
      match r1.hiding with
      | Some h -> check_bool (model ^ ": pairs compared") true (h.pairs > 0)
      | None -> Alcotest.fail "no hiding phase")
    [ "tree"; "grid" ]

(* Only draws of two distinct nodes count as compared pairs: none on a
   1-node graph, about half of them on a 2-node graph. *)
let test_sampling_hiding_pairs_compared () =
  let pairs_of g =
    match (trivial2_run ~pairs:200 ~model:"path" g).Lcp.Sampling.hiding with
    | Some h -> h.Lcp.Sampling.pairs
    | None -> Alcotest.fail "no hiding phase"
  in
  check_int "1 node: no pair compared" 0 (pairs_of (Graph.empty 1));
  let two = pairs_of (Builders.path 2) in
  check_bool "2 nodes: fewer pairs than draws" true (two > 0 && two < 200)

let suite =
  [
    case "traversal agreement" test_traversal_agreement;
    case "rows ascending" test_rows_ascending;
    case "rank and predicates" test_rank_and_predicates;
    case "port order: relabel" test_port_order_relabel;
    case "port order: induced" test_port_order_induced;
    case "port order: disjoint union" test_port_order_disjoint_union;
    case "of_edges validation" test_of_edges_validation;
    case "builder" test_builder;
    case "big build" test_big_build;
    case "random graphs deterministic" test_random_graphs_deterministic;
    case "gnp pinned edges" test_gnp_pinned_edges;
    case "model errors" test_model_errors;
    case "double cover" test_double_cover;
    case "double cover = lifted edges" test_double_cover_lifted_edges;
    case "sampling jobs invariant" test_sampling_jobs_invariant;
    case "sampling deterministic" test_sampling_deterministic;
    case "sampling one prover call" test_sampling_one_prover_call;
    case "sampling model graph" test_sampling_model_graph;
    case "sampling hiding pairs compared" test_sampling_hiding_pairs_compared;
    case "of_bitsets = of_edges, validation" test_of_bitsets;
  ]
