(* Property-based tests (qcheck) on the core invariants. *)

open Lcp_graph
open Lcp_local
open Lcp

(* -- generators ---------------------------------------------------- *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 1 9 in
    let* edges =
      list_size (int_range 0 (n * 2)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    let edges = List.filter (fun (u, v) -> u <> v) edges in
    return (Graph.of_edges n edges))

let gen_connected_graph =
  QCheck2.Gen.(
    let* n = int_range 2 9 in
    let* seed = int in
    let* p = float_bound_inclusive 0.5 in
    let rng = Random.State.make [| seed |] in
    return (Builders.random_connected rng n p))

let gen_instance =
  QCheck2.Gen.(
    let* g = gen_connected_graph in
    let* seed = int in
    let rng = Random.State.make [| seed |] in
    return (Instance.random rng g))

let print_graph = Graph.to_string
let print_instance i = Graph.to_string i.Instance.graph

(* -- properties ---------------------------------------------------- *)

let prop_two_color_proper =
  QCheck2.Test.make ~name:"two_color yields a proper 2-coloring" ~count:200
    ~print:print_graph gen_graph (fun g ->
      match Coloring.two_color g with
      | Some c -> Coloring.is_proper_k g ~k:2 c
      | None -> true)

let prop_odd_cycle_complements_two_color =
  QCheck2.Test.make ~name:"odd_cycle witness iff not bipartite" ~count:200
    ~print:print_graph gen_graph (fun g ->
      match (Coloring.two_color g, Coloring.odd_cycle g) with
      | Some _, None -> true
      | None, Some w -> Coloring.odd_closed_walk_check g w
      | _ -> false)

let prop_k_color_proper =
  QCheck2.Test.make ~name:"k_color yields proper colorings" ~count:100
    ~print:print_graph gen_graph (fun g ->
      match Coloring.k_color g ~k:3 with
      | Some c -> Coloring.is_proper_k g ~k:3 c
      | None -> not (Coloring.is_bipartite g))

let prop_greedy_bound =
  QCheck2.Test.make ~name:"greedy uses at most max degree + 1 colors" ~count:200
    ~print:print_graph gen_graph (fun g ->
      let c = Coloring.greedy g in
      Coloring.is_proper g c
      && Array.for_all (fun x -> x <= Graph.max_degree g) c)

let prop_diameter_vs_order =
  QCheck2.Test.make ~name:"diameter < order for connected graphs" ~count:200
    ~print:print_graph gen_connected_graph (fun g ->
      Metrics.diameter g < Graph.order g)

let prop_ball_matches_dist =
  QCheck2.Test.make ~name:"balls agree with BFS distances" ~count:100
    ~print:print_graph gen_connected_graph (fun g ->
      let v = 0 and r = 2 in
      let d = Metrics.bfs_dist g v in
      List.sort Stdlib.compare (Metrics.ball g v r)
      = List.filter (fun w -> d.(w) <= r) (Graph.nodes g))

let prop_view_well_formed =
  QCheck2.Test.make ~name:"views: center first, ids unique, ball correct"
    ~count:100 ~print:print_instance gen_instance (fun inst ->
      let v = 0 and r = 2 in
      let view = View.extract inst ~r v in
      let ids = Array.to_list view.View.ids in
      View.distance view 0 = 0
      && View.center_id view = Ident.id inst.Instance.ids v
      && List.length (List.sort_uniq Stdlib.compare ids) = List.length ids
      && View.size view = List.length (Metrics.ball inst.Instance.graph v r))

let prop_view_key_reflexive =
  QCheck2.Test.make ~name:"view keys are stable across re-extraction" ~count:100
    ~print:print_instance gen_instance (fun inst ->
      let a = View.extract inst ~r:1 0 and b = View.extract inst ~r:1 0 in
      View.key_identified a = View.key_identified b
      && View.key_anonymous a = View.key_anonymous b
      && View.key_order_invariant a = View.key_order_invariant b)

let prop_anonymous_key_id_invariant =
  QCheck2.Test.make ~name:"anonymous keys survive re-identification" ~count:100
    ~print:print_instance gen_instance (fun inst ->
      let rng = Random.State.make [| Instance.order inst |] in
      let inst' =
        Instance.with_ids inst
          (Ident.random rng ~bound:inst.Instance.ids.Ident.bound inst.Instance.graph)
      in
      View.key_anonymous (View.extract inst ~r:1 0)
      = View.key_anonymous (View.extract inst' ~r:1 0))

let prop_sync_matches_views =
  QCheck2.Test.make ~name:"flooding knowledge equals views" ~count:50
    ~print:print_instance gen_instance (fun inst ->
      Sync_runner.knowledge_matches_view inst ~r:1
      && Sync_runner.knowledge_matches_view inst ~r:2)

let prop_degree_one_strong =
  QCheck2.Test.make ~name:"degree-one decoder: strong soundness on random labelings"
    ~count:150 ~print:print_instance gen_instance (fun inst ->
      let rng = Random.State.make [| Graph.size inst.Instance.graph |] in
      let lab = Labeling.random rng ~alphabet:D_degree_one.alphabet inst.Instance.graph in
      let sub, _ =
        Decoder.accepted_subgraph D_degree_one.decoder (Instance.with_labels inst lab)
      in
      Coloring.is_bipartite sub)

let prop_union_strong =
  QCheck2.Test.make ~name:"union decoder: strong soundness on random labelings"
    ~count:150 ~print:print_instance gen_instance (fun inst ->
      let rng = Random.State.make [| Graph.size inst.Instance.graph + 1 |] in
      let lab = Labeling.random rng ~alphabet:D_union.alphabet inst.Instance.graph in
      let sub, _ =
        Decoder.accepted_subgraph D_union.decoder (Instance.with_labels inst lab)
      in
      Coloring.is_bipartite sub)

let prop_trivial_completeness =
  QCheck2.Test.make ~name:"trivial LCP completeness on random bipartite graphs"
    ~count:100 ~print:print_graph gen_connected_graph (fun g ->
      match Coloring.two_color g with
      | None -> true
      | Some _ -> (
          let suite = D_trivial.suite ~k:2 in
          match Decoder.certify suite (Instance.make g) with
          | Some i -> Decoder.accepts_all suite.Decoder.dec i
          | None -> false))

let prop_spanning_completeness =
  QCheck2.Test.make ~name:"spanning LCP completeness on random bipartite instances"
    ~count:75 ~print:print_instance gen_instance (fun inst ->
      if not (Coloring.is_bipartite inst.Instance.graph) then true
      else
        match Decoder.certify D_spanning.suite inst with
        | Some i -> Decoder.accepts_all D_spanning.decoder i
        | None -> false)

let prop_escape_paths_valid =
  QCheck2.Test.make ~name:"escape paths satisfy the r-forgetful definition"
    ~count:50 ~print:print_graph gen_connected_graph (fun g ->
      Graph.fold_nodes
        (fun v acc ->
          acc
          && List.for_all
               (fun u ->
                 match Forgetful.escape_path g ~r:1 ~v ~u with
                 | None -> true
                 | Some p ->
                     List.hd p = v
                     && List.length p = 2
                     && List.for_all
                          (fun w ->
                            let d = Metrics.bfs_dist g w in
                            d.(List.nth p 1) = d.(v) + 1)
                          (Metrics.ball g u 1))
               (Graph.neighbors g v))
        g true)

let prop_port_random_valid =
  QCheck2.Test.make ~name:"random port assignments are valid" ~count:100
    ~print:print_graph gen_graph (fun g ->
      let rng = Random.State.make [| Graph.order g |] in
      Port.is_valid g (Port.random rng g))

let prop_isomorphic_relabel =
  QCheck2.Test.make ~name:"relabeled graphs are isomorphic" ~count:75
    ~print:print_graph gen_graph (fun g ->
      let n = Graph.order g in
      let perm = Array.init n (fun i -> (i + 1) mod n) in
      Graph.isomorphic g (Graph.relabel g perm))

let prop_splice_parity =
  QCheck2.Test.make ~name:"splicing an even detour preserves walk parity"
    ~count:50 ~print:print_graph gen_connected_graph (fun g ->
      match Nb_walks.odd_nb_closed_walk g ~max_len:7 with
      | None -> true
      | Some w -> (
          let v = List.hd w in
          match
            Walks.non_backtracking_closed_walk g ~start:v ~len:4
          with
          | None -> true
          | Some detour ->
              let spliced = Walks.splice w 0 detour in
              Walks.is_closed_walk g spliced
              && List.length spliced mod 2 = List.length w mod 2))

let all =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_two_color_proper;
      prop_odd_cycle_complements_two_color;
      prop_k_color_proper;
      prop_greedy_bound;
      prop_diameter_vs_order;
      prop_ball_matches_dist;
      prop_view_well_formed;
      prop_view_key_reflexive;
      prop_anonymous_key_id_invariant;
      prop_sync_matches_views;
      prop_degree_one_strong;
      prop_union_strong;
      prop_trivial_completeness;
      prop_spanning_completeness;
      prop_escape_paths_valid;
      prop_port_random_valid;
      prop_isomorphic_relabel;
      prop_splice_parity;
    ]

let suite = all

(* later additions: serialization, async execution, resilience *)

let prop_graph_json_roundtrip =
  QCheck2.Test.make ~name:"graph JSON roundtrip" ~count:100 ~print:print_graph
    gen_graph (fun g ->
      match Codec.graph_of_json (Codec.graph_to_json g) with
      | Ok g' -> Graph.equal g g'
      | Error _ -> false)

let prop_instance_json_roundtrip =
  QCheck2.Test.make ~name:"instance JSON roundtrip" ~count:75
    ~print:print_instance gen_instance (fun inst ->
      match Codec.instance_of_json (Codec.instance_to_json inst) with
      | Ok inst' ->
          Graph.equal inst.Instance.graph inst'.Instance.graph
          && inst.Instance.ports = inst'.Instance.ports
          && inst.Instance.ids = inst'.Instance.ids
          && inst.Instance.labels = inst'.Instance.labels
      | Error _ -> false)

let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"JSON string escaping roundtrips" ~count:200
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\127') (int_range 0 30))
    (fun s ->
      match Lcp_obs.Json.of_string (Lcp_obs.Json.to_string (Lcp_obs.Json.String s)) with
      | Ok (Lcp_obs.Json.String s') -> s = s'
      | _ -> false)

let prop_async_matches_sync =
  QCheck2.Test.make ~name:"async quiescence = sync fixpoint" ~count:30
    ~print:print_instance gen_instance (fun inst ->
      let final, _ = Async_runner.run_to_quiescence inst in
      final = Sync_runner.run inst ~rounds:(Instance.order inst))

let prop_resilient_single_erasure =
  QCheck2.Test.make ~name:"resilient wrapper survives any single erasure"
    ~count:40 ~print:print_instance gen_instance (fun inst ->
      if not (Coloring.is_bipartite inst.Instance.graph) then true
      else
        let res = Resilient.wrap (D_trivial.suite ~k:2) in
        match Decoder.certify res inst with
        | None -> false
        | Some certified ->
            List.for_all
              (fun v ->
                Decoder.accepts_all res.Decoder.dec
                  (Resilient.erase certified ~nodes:[ v ]))
              (Graph.nodes inst.Instance.graph))

let prop_view_restrict_coherent =
  QCheck2.Test.make ~name:"restricting an r=2 view = extracting at r=1"
    ~count:75 ~print:print_instance gen_instance (fun inst ->
      let big = View.extract inst ~r:2 0 in
      View.equal (View.restrict big ~r:1) (View.extract inst ~r:1 0))

let late = 
  List.map QCheck_alcotest.to_alcotest
    [
      prop_graph_json_roundtrip;
      prop_instance_json_roundtrip;
      prop_json_string_roundtrip;
      prop_async_matches_sync;
      prop_resilient_single_erasure;
      prop_view_restrict_coherent;
    ]

let suite = suite @ late
