open Lcp_graph
open Lcp_local
module Run_cfg = Lcp_obs.Run_cfg

(* Every experiment takes one Run_cfg: its [jobs] drives the engine
   pool, [heavy] selects the expensive variants, [seed] feeds the
   per-experiment RNG ([Run_cfg.rng cfg] restarts the stream, so each
   experiment sees the historical fixed-seed sequence), and its metrics
   registry collects the battery's counters and spans. *)

let bool_row label ~expected_true actual =
  Report.check label (actual = expected_true)
    ~expected:(string_of_bool expected_true)
    ~actual:(string_of_bool actual)

let verdict_row label ~expect_pass verdict =
  let actual = Checker.is_pass verdict in
  let detail =
    match verdict with
    | Checker.Pass { checked } -> Printf.sprintf "pass (%d checks)" checked
    | Checker.Fail { detail; _ } -> "fail: " ^ detail
  in
  Report.check label (actual = expect_pass)
    ~expected:(if expect_pass then "pass" else "fail")
    ~actual:detail

(* ------------------------------------------------------------------ *)
(* E1: r-forgetfulness                                                  *)

(* Fig. 1 + Lemma 2.1: r-forgetful survey over graph families. *)
let e1_forgetful cfg =
  ignore cfg;
  let families =
    [
      ("cycle C9", Builders.cycle 9, true);
      ("cycle C12", Builders.cycle 12, true);
      ("cycle C5", Builders.cycle 5, false);
      ("theta(4,4,4)", Builders.theta 4 4 4, true);
      ("theta(5,5,6)", Builders.theta 5 5 6, true);
      ("watermelon[6;6]", Builders.watermelon [ 6; 6 ], true);
      ("torus 7x7", Builders.torus 7 7, true);
      ("torus 5x5", Builders.torus 5 5, false);
      ("grid 5x5 (corners)", Builders.grid 5 5, false);
      ("path P9 (leaves)", Builders.path 9, false);
      ("complete K5", Builders.complete 5, false);
      ("petersen", Builders.petersen (), false);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, g, expected) ->
        let actual = Forgetful.is_r_forgetful g ~r:1 in
        [
          bool_row (name ^ " 1-forgetful") ~expected_true:expected actual;
          bool_row
            (name ^ " Lemma 2.1 (r=1..3)")
            ~expected_true:true
            (Forgetful.lemma_2_1_holds g ~r:1
            && Forgetful.lemma_2_1_holds g ~r:2
            && Forgetful.lemma_2_1_holds g ~r:3);
        ])
      families
  in
  let witness_row =
    match Forgetful.check (Builders.theta 4 4 4) ~r:1 with
    | Forgetful.Forgetful ws ->
        Report.check "theta escape-path witnesses (one per (v,u))"
          (List.length ws = 2 * Graph.size (Builders.theta 4 4 4))
          ~expected:"2|E| witnesses"
          ~actual:(string_of_int (List.length ws))
    | Forgetful.Not_forgetful _ ->
        Report.check "theta escape-path witnesses" false ~expected:"witnesses"
          ~actual:"none"
  in
  { Report.id = "E1"; title = "Fig. 1 / Lemma 2.1: r-forgetful graphs"; rows = rows @ [ witness_row ] }

(* ------------------------------------------------------------------ *)
(* E2: views and compatibility                                          *)

(* Fig. 2: view extraction and visibility of fringe edges;
   yes-instance compatibility. *)
let e2_views cfg =
  ignore cfg;
  (* the diamond: C4 plus a chord; at r = 1 the chord between two
     distance-1 nodes is invisible from the opposite node *)
  let diamond = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ] in
  let inst = Instance.make diamond in
  let v0 = View.extract inst ~r:1 0 in
  let local_of_id i = Option.get (View.find_by_id v0 i) in
  let chord_invisible =
    not (Graph.mem_edge v0.View.graph (local_of_id 2) (local_of_id 4))
  in
  (* ids are canonical: node v has id v+1; node 0's neighbors are 1 and
     3, i.e. ids 2 and 4 *)
  let ball_row =
    Report.check "r=1 ball of node 0 in the diamond" (View.size v0 = 3)
      ~expected:"3 nodes" ~actual:(string_of_int (View.size v0))
  in
  let chord_row =
    Report.check "fringe chord {1,3} invisible at r=1 (Fig. 2 rule)"
      chord_invisible ~expected:"invisible"
      ~actual:(if chord_invisible then "invisible" else "visible")
  in
  (* adjacent views of a yes-instance are neighbors in V(D, n) *)
  let p6 = Instance.make (Builders.path 6) in
  let suite = D_trivial.suite ~k:2 in
  let cert = Option.get (Decoder.certify suite p6) in
  let nbhd = Neighborhood.build suite.Decoder.dec [ cert ] in
  let mu2 = View.extract cert ~r:1 2 and mu3 = View.extract cert ~r:1 3 in
  let compat_edge =
    match (Neighborhood.find nbhd mu2, Neighborhood.find nbhd mu3) with
    | Some a, Some b -> Graph.mem_edge nbhd.Neighborhood.graph a b
    | _ -> false
  in
  let edge_row =
    Report.check "adjacent accepted views are V(D,n)-compatible" compat_edge
      ~expected:"edge present" ~actual:(string_of_bool compat_edge)
  in
  (* a view extracted at radius 2 determines interior radius-1 subviews *)
  let v2 = View.extract p6 ~r:2 2 in
  let sub_ok =
    View.equal (View.subview1 v2 0) (View.extract p6 ~r:1 2)
  in
  let sub_row =
    Report.check "interior radius-1 subview = direct extraction" sub_ok
      ~expected:"equal" ~actual:(string_of_bool sub_ok)
  in
  { Report.id = "E2"; title = "Fig. 2: views, fringe visibility, compatibility";
    rows = [ ball_row; chord_row; edge_row; sub_row ] }

(* ------------------------------------------------------------------ *)
(* E3: degree-one decoder (Lemma 4.1, Figs. 3-4)                        *)

(* Iso-class listings come from the engine: canonical-form dedup plus
   the cross-sweep cache, so the many experiments that re-enumerate the
   same orders share one enumeration per process. The representatives
   (smallest edge mask per class) coincide with the ones the pairwise
   oracle [Lcp_oracle.Enumerate.connected_up_to_iso] picks. *)
let classes ?cfg n = Lcp_engine.Sweep.iso_classes ?cfg n

let min_degree_one_family ?cfg ~max_n () =
  let graphs = ref [] in
  for n = 2 to max_n do
    graphs := classes ?cfg n @ !graphs
  done;
  List.filter (fun g -> Graph.min_degree g = 1) !graphs

(* Lemma 4.1 + Figs. 3–4: the degree-one decoder battery. The
   soundness row sweeps every connected non-bipartite
   isomorphism class on 6 nodes (5 when [cfg.heavy] is off) through
   [Lcp_engine.Sweep]. *)
let e3_degree_one cfg =
  let heavy = cfg.Run_cfg.heavy in
  let suite = D_degree_one.suite in
  let rng = Run_cfg.rng cfg in
  let yes_family =
    min_degree_one_family ~cfg ~max_n:(if heavy then 6 else 5) ()
    |> List.filter Coloring.is_bipartite
    |> List.map Instance.make
  in
  let completeness =
    verdict_row
      (Printf.sprintf "completeness (%d yes-instances)" (List.length yes_family))
      ~expect_pass:true
      (Checker.completeness suite yes_family)
  in
  let soundness =
    (* the whole non-bipartite space on exactly n nodes, via the
       engine: n = 6 under [heavy] widens the regime the seed code
       (n = 5 list pipeline) could reach *)
    let sweep =
      Checker.soundness_sweep ~cfg suite ~n:(if heavy then 6 else 5)
    in
    verdict_row
      (Printf.sprintf "soundness (n=%d, engine sweep over %d no-classes)"
         sweep.Lcp_engine.Sweep.n
         sweep.Lcp_engine.Sweep.counters.Lcp_engine.Sweep.kept)
      ~expect_pass:true
      (Checker.verdict_of_sweep sweep)
  in
  let strong_family =
    (if heavy then List.concat_map (classes ~cfg) [ 2; 3; 4; 5 ]
     else List.concat_map (classes ~cfg) [ 2; 3; 4 ])
    |> List.map Instance.make
  in
  let strong =
    verdict_row
      (Printf.sprintf "strong soundness (all labelings, %d graphs)"
         (List.length strong_family))
      ~expect_pass:true
      (Checker.strong_soundness_exhaustive ~cfg suite ~k:2 strong_family)
  in
  let anonymity =
    verdict_row "anonymity" ~expect_pass:true
      (Checker.anonymity suite.Decoder.dec ~trials:20 rng
         (List.filter_map (Decoder.certify suite) yes_family))
  in
  (* hiding: the full V(D, 4) over the min-degree-1 class *)
  let fam4 =
    Neighborhood.exhaustive_family suite
      ~graphs:(min_degree_one_family ~cfg ~max_n:4 ())
      ~ports:`All ~cfg ()
  in
  let hiding_verdict = Hiding.check ~k:2 suite.Decoder.dec fam4 in
  let hiding =
    match hiding_verdict with
    | Hiding.Hiding { witness; nbhd } ->
        Report.check "hiding: odd cycle in V(D,4) (Fig. 4)" true
          ~expected:"odd cycle exists"
          ~actual:
            (Printf.sprintf "odd cycle of %d views (|V|=%d)" (List.length witness)
               (Neighborhood.order nbhd))
    | Hiding.Colorable _ ->
        Report.check "hiding: odd cycle in V(D,4)" false
          ~expected:"odd cycle exists" ~actual:"V(D,4) is 2-colorable"
  in
  { Report.id = "E3"; title = "Lemma 4.1 / Figs. 3-4: degree-one decoder";
    rows = [ completeness; soundness; strong; anonymity; hiding ] }

(* ------------------------------------------------------------------ *)
(* E4: even-cycle decoder (Lemma 4.2, Figs. 5-6)                        *)

(* Lemma 4.2 + Figs. 5–6: the even-cycle decoder battery, including
   the hidden-everywhere property. *)
let e4_even_cycle cfg =
  let heavy = cfg.Run_cfg.heavy in
  let suite = D_even_cycle.suite in
  let rng = Run_cfg.rng cfg in
  let yes_family =
    List.map (fun n -> Instance.make (Builders.cycle n)) [ 4; 6; 8; 10 ]
  in
  let completeness =
    verdict_row "completeness (C4..C10)" ~expect_pass:true
      (Checker.completeness suite yes_family)
  in
  let no_family =
    List.map (fun n -> Instance.make (Builders.cycle n))
      (if heavy then [ 3; 5; 7 ] else [ 3; 5 ])
  in
  let soundness =
    verdict_row "soundness (odd cycles, exhaustive)" ~expect_pass:true
      (Checker.soundness_exhaustive ~cfg suite no_family)
  in
  let strong_family =
    List.map Instance.make
      ((if heavy then [ Builders.cycle 6 ] else [])
      @ [ Builders.cycle 3; Builders.cycle 4; Builders.cycle 5; Builders.path 4 ])
  in
  let strong =
    verdict_row "strong soundness (all labelings)" ~expect_pass:true
      (Checker.strong_soundness_exhaustive ~cfg suite ~k:2 strong_family)
  in
  let anonymity =
    verdict_row "anonymity" ~expect_pass:true
      (Checker.anonymity suite.Decoder.dec ~trials:20 rng
         (List.filter_map (Decoder.certify suite) yes_family))
  in
  let fam =
    Neighborhood.exhaustive_family suite ~graphs:[ Builders.cycle 6 ] ~ports:`All
      ~cfg ()
  in
  let nbhd = Neighborhood.build suite.Decoder.dec fam in
  let hiding =
    (* two independent witnesses coexist: Fig. 6's odd cycle in the
       loop-free part, and looped view classes (adjacent nodes with
       reflection-isomorphic views) *)
    match Coloring.odd_cycle nbhd.Neighborhood.graph with
    | Some cyc ->
        Report.check "hiding: odd cycle in V(D,6) (Fig. 6)" true
          ~expected:"odd cycle exists"
          ~actual:
            (Printf.sprintf "odd cycle of %d views + %d loops (|V|=%d, %d instances)"
               (List.length cyc)
               (List.length nbhd.Neighborhood.loops)
               (Neighborhood.order nbhd) (List.length fam))
    | None ->
        Report.check "hiding: odd cycle in V(D,6)"
          (nbhd.Neighborhood.loops <> [])
          ~expected:"odd cycle exists"
          ~actual:
            (Printf.sprintf "%d loops only" (List.length nbhd.Neighborhood.loops))
  in
  (* hidden everywhere: every view class of V arises both from nodes
     2-colored 0 and from nodes 2-colored 1 across accepted instances *)
  let instances = Array.of_list fam in
  let both_colors =
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun (inst : Instance.t) ->
        let colors = Option.get (Coloring.two_color inst.Instance.graph) in
        Array.iteri
          (fun v mu ->
            let key = View.key_anonymous mu in
            let prev = Option.value ~default:(false, false) (Hashtbl.find_opt seen key) in
            let prev = if colors.(v) = 0 then (true, snd prev) else (fst prev, true) in
            Hashtbl.replace seen key prev)
          (View.extract_all inst ~r:1))
      instances;
    Hashtbl.fold (fun _ (a, b) acc -> acc && a && b) seen true
  in
  let everywhere =
    Report.check "hidden everywhere: every view occurs with both colors"
      both_colors ~expected:"true" ~actual:(string_of_bool both_colors)
  in
  { Report.id = "E4"; title = "Lemma 4.2 / Figs. 5-6: even-cycle decoder";
    rows = [ completeness; soundness; strong; anonymity; hiding; everywhere ] }

(* ------------------------------------------------------------------ *)
(* E5: the union decoder (Theorem 1.1)                                  *)

(* Theorem 1.1: the assembled anonymous union decoder. *)
let e5_union cfg =
  let suite = D_union.suite in
  let rng = Run_cfg.rng cfg in
  let yes_family =
    List.map Instance.make
      [ Builders.path 5; Builders.star 4; Builders.caterpillar 3 1;
        Builders.cycle 4; Builders.cycle 6; Builders.cycle 8;
        Builders.pendant (Builders.cycle 4) 0 ]
  in
  let completeness =
    verdict_row "completeness (H1 and H2 members)" ~expect_pass:true
      (Checker.completeness suite yes_family)
  in
  let no_family =
    List.map Instance.make [ Builders.cycle 3; Builders.cycle 5 ]
  in
  let soundness =
    verdict_row "soundness (odd cycles, exhaustive)" ~expect_pass:true
      (Checker.soundness_exhaustive suite no_family)
  in
  let strong =
    verdict_row "strong soundness (randomized, mixed instances)" ~expect_pass:true
      (Checker.strong_soundness_random suite ~k:2 ~trials:3000 rng
         (List.map Instance.make
            [ Builders.cycle 5; Builders.friendship 2; Builders.pendant (Builders.cycle 3) 0 ]))
  in
  let strong_small =
    verdict_row "strong soundness (all labelings, n<=3)" ~expect_pass:true
      (Checker.strong_soundness_exhaustive suite ~k:2
         (List.map Instance.make [ Builders.cycle 3; Builders.path 3 ]))
  in
  let anonymity =
    verdict_row "anonymity" ~expect_pass:true
      (Checker.anonymity suite.Decoder.dec ~trials:10 rng
         (List.filter_map (Decoder.certify suite) yes_family))
  in
  let hiding_family =
    Neighborhood.exhaustive_family D_union.suite
      ~graphs:(min_degree_one_family ~cfg ~max_n:4 ()) ~ports:`All ~cfg ()
  in
  let hiding =
    match Hiding.check ~k:2 suite.Decoder.dec hiding_family with
    | Hiding.Hiding { witness; _ } ->
        Report.check "hiding (inherited from H1 construction)" true
          ~expected:"odd cycle exists"
          ~actual:(Printf.sprintf "odd cycle of %d views" (List.length witness))
    | Hiding.Colorable _ ->
        Report.check "hiding" false ~expected:"odd cycle exists" ~actual:"2-colorable"
  in
  { Report.id = "E5"; title = "Theorem 1.1: anonymous union decoder on H1 u H2";
    rows = [ completeness; soundness; strong; strong_small; anonymity; hiding ] }

(* ------------------------------------------------------------------ *)
(* E6: shatter decoder (Theorem 1.3)                                    *)

let spider legs len =
  (* a star of [legs] paths of length [len] from a hub: shatter point *)
  let g = ref (Graph.empty 1) in
  for _ = 1 to legs do
    let n = Graph.order !g in
    let h = Graph.disjoint_union !g (Builders.path len) in
    g := Graph.add_edge h 0 n
  done;
  !g

(* Theorem 1.3: the shatter-point decoder battery. *)
let e6_shatter cfg =
  let heavy = cfg.Run_cfg.heavy in
  let suite = D_shatter.suite in
  let rng = Run_cfg.rng cfg in
  let yes_family =
    List.map Instance.make
      [ Builders.path 5; Builders.path 8; spider 3 2; spider 3 3;
        Builders.star 3; Builders.caterpillar 4 1;
        Graph.of_edges 7 [ (0,1); (1,2); (2,3); (3,4); (2,5); (5,6) ] ]
  in
  let completeness =
    verdict_row "completeness (shatter-point yes-instances)" ~expect_pass:true
      (Checker.completeness suite yes_family)
  in
  let promise_row =
    let has = D_shatter.is_shatter_graph in
    (* cycles never shatter: removing a closed neighborhood leaves a
       single path *)
    let actual =
      (has (Builders.path 5), has (Builders.star 3), has (Builders.theta 2 2 2),
       has (Builders.path 4), has (Builders.cycle 5), has (Builders.cycle 6))
    in
    Report.check "promise class recognition"
      (actual = (true, true, true, false, false, false))
      ~expected:"P5,star3,theta(2,2,2) yes; P4,C5,C6 no"
      ~actual:(if actual = (true, true, true, false, false, false) then "as expected"
               else "unexpected membership")
  in
  let soundness =
    verdict_row "soundness (C3 exhaustive)" ~expect_pass:true
      (Checker.soundness_exhaustive suite [ Instance.make (Builders.cycle 3) ])
  in
  let strong_exh =
    if heavy then
      verdict_row "strong soundness (all labelings, n=4 graphs)" ~expect_pass:true
        (Checker.strong_soundness_exhaustive ~cfg suite ~k:2
           (List.map Instance.make
              [ Builders.star 3; Builders.path 4; Builders.cycle 4; Builders.cycle 3 ]))
    else
      verdict_row "strong soundness (all labelings, n=3)" ~expect_pass:true
        (Checker.strong_soundness_exhaustive ~cfg suite ~k:2
           (List.map Instance.make [ Builders.cycle 3; Builders.path 3 ]))
  in
  let strong_rand =
    verdict_row "strong soundness (randomized, n<=7)" ~expect_pass:true
      (Checker.strong_soundness_random suite ~k:2 ~trials:2000 rng
         (List.map Instance.make
            [ Builders.cycle 5; Builders.friendship 3; spider 3 2;
              Builders.pendant (Builders.cycle 3) 0 ]))
  in
  (* hiding: the paper's P1 / P2 pair from the Theorem 1.3 proof *)
  let p1 = Builders.path 8 in
  (* nodes: w3 w2 w1 u1 v u2 z1 z2 = 0..7, ids 1..8 *)
  let vid = 5 in
  let l1 =
    [|
      D_shatter.encode_type2 ~id:vid ~comp:1 ~color:0;  (* w3 *)
      D_shatter.encode_type2 ~id:vid ~comp:1 ~color:1;  (* w2 *)
      D_shatter.encode_type2 ~id:vid ~comp:1 ~color:0;  (* w1 *)
      D_shatter.encode_type1 ~id:vid ~colors:[ 0; 0 ];  (* u1 *)
      D_shatter.encode_type0 ~id:vid;                   (* v  *)
      D_shatter.encode_type1 ~id:vid ~colors:[ 0; 0 ];  (* u2 *)
      D_shatter.encode_type2 ~id:vid ~comp:2 ~color:0;  (* z1 *)
      D_shatter.encode_type2 ~id:vid ~comp:2 ~color:1;  (* z2 *)
    |]
  in
  let i1 = Instance.make p1 ~labels:l1 in
  let p2 = Builders.path 7 in
  (* nodes: w3 w2 u1 v u2 z1 z2 = 0..6, ids 1,2,4,5,6,7,8 *)
  let ids2 = Ident.of_array ~bound:8 [| 1; 2; 4; 5; 6; 7; 8 |] in
  let l2 =
    [|
      D_shatter.encode_type2 ~id:vid ~comp:1 ~color:0;  (* w3 *)
      D_shatter.encode_type2 ~id:vid ~comp:1 ~color:1;  (* w2 *)
      D_shatter.encode_type1 ~id:vid ~colors:[ 1; 0 ];  (* u1 *)
      D_shatter.encode_type0 ~id:vid;                   (* v  *)
      D_shatter.encode_type1 ~id:vid ~colors:[ 1; 0 ];  (* u2 *)
      D_shatter.encode_type2 ~id:vid ~comp:2 ~color:0;  (* z1 *)
      D_shatter.encode_type2 ~id:vid ~comp:2 ~color:1;  (* z2 *)
    |]
  in
  let i2 = Instance.make p2 ~ids:ids2 ~labels:l2 in
  let accepted_row =
    let ok = Decoder.accepts_all suite.Decoder.dec i1 && Decoder.accepts_all suite.Decoder.dec i2 in
    Report.check "P1 and P2 certificates unanimously accepted" ok
      ~expected:"accepted" ~actual:(string_of_bool ok)
  in
  let hiding =
    match Hiding.check ~k:2 suite.Decoder.dec [ i1; i2 ] with
    | Hiding.Hiding { witness; _ } ->
        Report.check "hiding: odd cycle from the P1/P2 pair" true
          ~expected:"odd cycle exists"
          ~actual:(Printf.sprintf "odd cycle of %d views" (List.length witness))
    | Hiding.Colorable _ ->
        Report.check "hiding: odd cycle from the P1/P2 pair" false
          ~expected:"odd cycle exists" ~actual:"2-colorable"
  in
  { Report.id = "E6"; title = "Theorem 1.3: shatter-point decoder";
    rows = [ promise_row; completeness; soundness; strong_exh; strong_rand;
             accepted_row; hiding ] }

(* ------------------------------------------------------------------ *)
(* E7: watermelon decoder (Theorem 1.4)                                 *)

(* The path construction from the Theorem 1.4 hiding proof: a P8 whose
   certificates claim it is one watermelon path between its endpoints.
   A path is a bipartite graph, hence a legitimate yes-instance of the
   language even though it is outside the promise class. *)
let watermelon_path_instance ~ids ~flip =
  let g = Builders.path 8 in
  let inst = Instance.make g ~ids in
  let endpoint_ids =
    let a = Ident.id ids 0 and b = Ident.id ids 7 in
    (min a b, max a b)
  in
  let id1, id2 = endpoint_ids in
  let lab =
    Array.init 8 (fun v ->
        if v = 0 || v = 7 then D_watermelon.encode_endpoint ~id1 ~id2
        else
          let color_edge i = (i + flip) mod 2 in
          (* node v has port 1 to v-1, port 2 to v+1 under canonical
             ports; far ports: v-1's port toward v is 2 (or 1 at the
             left endpoint), v+1's port toward v is 1 *)
          let p1 = if v - 1 = 0 then 1 else 2 in
          let p2 = 1 in
          D_watermelon.encode_path_node ~id1 ~id2 ~num:1 ~p1
            ~c1:(color_edge (v - 1)) ~p2 ~c2:(color_edge v))
  in
  Instance.with_labels inst lab

(* Theorem 1.4: the watermelon decoder battery. [cfg.jobs]
   parallelizes the strong-soundness row and the 8-path
   certificate-family expansion over (identifier, port) choices. *)
let e7_watermelon cfg =
  let heavy = cfg.Run_cfg.heavy in
  let suite = D_watermelon.suite in
  let rng = Run_cfg.rng cfg in
  let yes_family =
    List.map
      (fun ls -> Instance.make (Builders.watermelon ls))
      [ [ 2; 2 ]; [ 2; 4 ]; [ 3; 3 ]; [ 2; 2; 4 ]; [ 3; 3; 3 ]; [ 2; 4; 2; 4 ] ]
  in
  let completeness =
    verdict_row "completeness (watermelons, even and odd paths)" ~expect_pass:true
      (Checker.completeness suite yes_family)
  in
  let soundness =
    verdict_row "soundness (watermelon[2;3] = C5, exhaustive)" ~expect_pass:true
      (Checker.soundness_exhaustive suite
         [ Instance.make (Builders.watermelon [ 2; 3 ]) ])
  in
  let strong_exh =
    if heavy then
      verdict_row "strong soundness (all labelings, C4/C3/P4)" ~expect_pass:true
        (Checker.strong_soundness_exhaustive ~cfg suite ~k:2
           (List.map Instance.make
              [ Builders.watermelon [ 2; 2 ]; Builders.cycle 3; Builders.path 4 ]))
    else
      verdict_row "strong soundness (all labelings, C3)" ~expect_pass:true
        (Checker.strong_soundness_exhaustive ~cfg suite ~k:2
           [ Instance.make (Builders.cycle 3) ])
  in
  let strong_rand =
    verdict_row "strong soundness (randomized)" ~expect_pass:true
      (Checker.strong_soundness_random suite ~k:2 ~trials:2000 rng
         (List.map Instance.make
            [ Builders.watermelon [ 2; 3 ]; Builders.theta 3 3 4; Builders.cycle 5 ]))
  in
  (* hiding via 8-paths with the paper's two identifier assignments:
     the full space of port assignments and accepted certificates is
     enumerated and the odd cycle is found inside the resulting V *)
  let id_straight = Ident.of_array ~bound:8 [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let id_swapped = Ident.of_array ~bound:8 [| 1; 2; 6; 5; 4; 3; 7; 8 |] in
  let g8 = Builders.path 8 in
  let port_choices =
    let all = Port.enumerate g8 in
    if heavy then all else List.filteri (fun i _ -> i mod 4 = 0) all
  in
  let family =
    (* one work unit per (ids, ports) choice, expanded on the engine
       pool when [jobs > 1]; concatenation in choice order keeps the
       family identical for every [jobs] (each unit preserves the
       historical un-reversed accumulator order). *)
    let units =
      List.concat_map
        (fun ids -> List.map (fun prt -> (ids, prt)) port_choices)
        [ id_straight; id_swapped ]
    in
    let expand (ids, prt) =
      let base = Instance.make g8 ~ports:prt ~ids in
      let alphabet = suite.Decoder.adversary_alphabet base in
      let acc = ref [] in
      Prover.iter_accepted suite.Decoder.dec ~alphabet base (fun lab ->
          acc := Instance.with_labels base lab :: !acc);
      !acc
    in
    match cfg.Run_cfg.jobs with
    | 1 -> List.concat_map expand units
    | jobs ->
        List.concat
          (Array.to_list
             (Lcp_engine.Pool.map ~metrics:cfg.Run_cfg.metrics ~jobs expand
                (Array.of_list units)))
  in
  let hand_picked =
    List.map
      (fun (ids, flip) -> watermelon_path_instance ~ids ~flip)
      [ (id_straight, 0); (id_straight, 1); (id_swapped, 0); (id_swapped, 1) ]
  in
  let accepted_row =
    let ok = List.for_all (Decoder.accepts_all suite.Decoder.dec) hand_picked in
    Report.check
      (Printf.sprintf "8-path watermelon certificates accepted (%d accepted instances)"
         (List.length family))
      ok ~expected:"accepted" ~actual:(string_of_bool ok)
  in
  let family = hand_picked @ family in
  let hiding =
    match Hiding.check ~k:2 suite.Decoder.dec family with
    | Hiding.Hiding { witness; _ } ->
        Report.check "hiding: odd cycle from the id-swap construction" true
          ~expected:"odd cycle exists"
          ~actual:(Printf.sprintf "odd cycle of %d views" (List.length witness))
    | Hiding.Colorable _ ->
        Report.check "hiding: odd cycle from the id-swap construction" false
          ~expected:"odd cycle exists" ~actual:"2-colorable"
  in
  { Report.id = "E7"; title = "Theorem 1.4: watermelon decoder";
    rows = [ completeness; soundness; strong_exh; strong_rand; accepted_row; hiding ] }

(* ------------------------------------------------------------------ *)
(* E8: Lemma 3.2, extraction direction                                  *)

(* Lemma 3.2: colorable neighborhood graphs yield working extraction
   decoders for the two revealing baselines; the paper's decoders
   yield odd cycles instead. *)
let e8_extraction cfg =
  let trivial = D_trivial.suite ~k:2 in
  let graphs =
    classes 4 @ classes 3 |> List.filter Coloring.is_bipartite
  in
  let fam =
    Neighborhood.exhaustive_family trivial ~graphs ~ports:`All
      ~ids:(`Canonical_bound 8) ~cfg ()
  in
  let verdict = Hiding.check ~k:2 trivial.Decoder.dec fam in
  let colorable_row =
    match verdict with
    | Hiding.Colorable { nbhd; _ } ->
        Report.check "trivial LCP: V(D,4) is 2-colorable" true
          ~expected:"2-colorable"
          ~actual:(Printf.sprintf "2-colorable, |V|=%d" (Neighborhood.order nbhd))
    | Hiding.Hiding _ ->
        Report.check "trivial LCP: V(D,4) is 2-colorable" false
          ~expected:"2-colorable" ~actual:"odd cycle found"
  in
  let extraction_rows =
    match Extractor.of_verdict verdict with
    | None -> [ Report.check "extractor built" false ~expected:"built" ~actual:"none" ]
    | Some ex ->
        let works_on_family =
          List.for_all (Extractor.extraction_succeeds ex) fam
        in
        (* fresh larger instances: their radius-1 views already occur in
           V(D,4), so extraction transfers beyond the build family *)
        let fresh =
          List.filter_map
            (fun g ->
              Decoder.certify trivial
                (Instance.make g ~ids:(Ident.canonical ~bound:8 g)))
            [ Builders.path 7; Builders.cycle 8; Builders.star 3 ]
        in
        let works_fresh = List.for_all (Extractor.extraction_succeeds ex) fresh in
        [
          Report.check "extractor D' recovers a proper 2-coloring (family)"
            works_on_family ~expected:"all succeed"
            ~actual:(string_of_bool works_on_family);
          Report.check "extractor D' transfers to larger instances" works_fresh
            ~expected:"all succeed" ~actual:(string_of_bool works_fresh);
        ]
  in
  (* spanning-tree baseline: identified mode, extraction on its own family *)
  let spanning = D_spanning.suite in
  let sp_instances =
    List.filter_map
      (fun g -> Decoder.certify spanning (Instance.make g))
      [ Builders.path 5; Builders.cycle 6; Builders.star 3; Builders.grid 2 3 ]
  in
  let sp_verdict = Hiding.check ~k:2 spanning.Decoder.dec sp_instances in
  let sp_rows =
    match Extractor.of_verdict sp_verdict with
    | None ->
        [ Report.check "spanning baseline: V 2-colorable" false
            ~expected:"2-colorable" ~actual:"odd cycle" ]
    | Some ex ->
        let ok = List.for_all (Extractor.extraction_succeeds ex) sp_instances in
        [
          Report.check "spanning baseline: V 2-colorable and extraction works" ok
            ~expected:"extraction succeeds" ~actual:(string_of_bool ok);
        ]
  in
  (* contrast: the paper's decoders produced odd cycles (E3-E7) *)
  let contrast =
    let d1_hiding =
      Hiding.is_hiding_on ~k:2 D_degree_one.decoder
        (Neighborhood.exhaustive_family D_degree_one.suite
           ~graphs:(min_degree_one_family ~cfg ~max_n:4 ()) ~ports:`All ~cfg ())
    in
    Report.check "contrast: degree-one decoder stays hiding" d1_hiding
      ~expected:"hiding" ~actual:(string_of_bool d1_hiding)
  in
  { Report.id = "E8"; title = "Lemma 3.2: extraction from colorable V(D,n)";
    rows = (colorable_row :: extraction_rows) @ sp_rows @ [ contrast ] }

(* ------------------------------------------------------------------ *)
(* E9: realizability and G_bad (Lemma 5.1)                              *)

let accept_all =
  Decoder.make ~name:"accept-all" ~radius:1 ~anonymous:false (fun _ -> true)

let rotation_instances () =
  (* five P5 path instances whose identifier windows rotate around a
     5-cycle: their interior views chain into an odd cycle of V *)
  let g = Builders.path 5 in
  List.init 5 (fun k ->
      let ids = Array.init 5 (fun v -> 1 + ((k + v) mod 5)) in
      Instance.make g ~ids:(Ident.of_array ~bound:5 ids))

(* Sec. 5.1 + Lemma 5.1: compatibility, realizable odd view cycles,
   and the [G_bad] gluing violating strong soundness for a
   non-strongly-sound decoder. *)
let e9_realizability cfg =
  let insts = rotation_instances () in
  let nbhd = Neighborhood.build accept_all insts in
  let odd = Neighborhood.odd_cycle nbhd in
  let odd_row =
    Report.check "V(accept-all) over rotated paths has an odd cycle"
      (odd <> None) ~expected:"odd cycle"
      ~actual:
        (match odd with
        | Some c -> Printf.sprintf "odd cycle of %d views" (List.length c)
        | None -> "none")
  in
  match odd with
  | None ->
      { Report.id = "E9"; title = "Lemma 5.1: realizability and G_bad";
        rows = [ odd_row ] }
  | Some cycle_views ->
      let h = Realizability.of_neighborhood nbhd cycle_views in
      let pool =
        List.concat_map
          (fun inst -> Array.to_list (View.extract_all inst ~r:1))
          insts
      in
      let assignment = Realizability.realizable ~pool h in
      let realizable_row =
        Report.check "the odd view cycle is realizable" (assignment <> None)
          ~expected:"realizable" ~actual:(string_of_bool (assignment <> None))
      in
      let glue_rows =
        match Option.map Realizability.realize assignment with
        | Some (Ok realization) ->
            let g_bad = realization.Realizability.instance.Instance.graph in
            let non_bip = not (Coloring.is_bipartite g_bad) in
            let accepted =
              Realizability.centers_accepted accept_all h realization
            in
            [
              Report.check "G_bad is non-bipartite (odd cycle realized)" non_bip
                ~expected:"non-bipartite"
                ~actual:(Printf.sprintf "n=%d, bipartite=%b" (Graph.order g_bad) (not non_bip));
              Report.check "all H-centers accept in G_bad (Lemma 5.1)" accepted
                ~expected:"accepted" ~actual:(string_of_bool accepted);
              Report.check "hence accept-all is not strongly sound"
                (non_bip && accepted) ~expected:"violation exhibited"
                ~actual:(string_of_bool (non_bip && accepted));
            ]
        | Some (Error e) ->
            [ Report.check "G_bad gluing" false ~expected:"built" ~actual:e ]
        | None -> []
      in
      (* compatibility of a node with a view (Fig. 7 notion) *)
      let compat_row =
        let i0 = List.nth insts 0 in
        let mu1 = View.extract i0 ~r:1 1 and mu2 = View.extract i0 ~r:1 2 in
        let u = Option.get (View.find_by_id mu1 (View.center_id mu2)) in
        let ok = Realizability.compatible mu1 u mu2 in
        Report.check "compatibility of adjacent views (Fig. 7)" ok
          ~expected:"compatible" ~actual:(string_of_bool ok)
      in
      (* contrapositive: the degree-one decoder's identified odd cycles,
         if any, must never realize into an accepted G_bad *)
      let contrapositive =
        let suite = D_degree_one.suite in
        let fam =
          Neighborhood.exhaustive_family suite
            ~graphs:(min_degree_one_family ~cfg ~max_n:4 ()) ~cfg ()
        in
        let nb = Neighborhood.build ~mode:Neighborhood.Identified suite.Decoder.dec fam in
        match Neighborhood.odd_cycle nb with
        | None ->
            Report.check "degree-one: no identified odd cycle to realize" true
              ~expected:"no violation" ~actual:"V identified-bipartite"
        | Some c -> (
            let h = Realizability.of_neighborhood nb c in
            let pool =
              List.concat_map (fun i -> Array.to_list (View.extract_all i ~r:1)) fam
            in
            match Realizability.lemma_5_1 suite.Decoder.dec ~pool h with
            | Error _ ->
                Report.check "degree-one: odd view cycle does not realize" true
                  ~expected:"no violation" ~actual:"realization fails"
            | Ok realization ->
                let bip =
                  Coloring.is_bipartite
                    realization.Realizability.instance.Instance.graph
                in
                Report.check "degree-one: realization stays bipartite" bip
                  ~expected:"no violation" ~actual:(string_of_bool bip))
      in
      { Report.id = "E9"; title = "Lemma 5.1: realizability and G_bad";
        rows = (odd_row :: realizable_row :: glue_rows) @ [ compat_row; contrapositive ] }

(* ------------------------------------------------------------------ *)
(* E10: walk surgery (Lemmas 5.4-5.5)                                   *)

(* Lemmas 5.4–5.5 / Theorem 1.5 machinery on r-forgetful instances:
   edge expansions, walk repairs, and the contrapositive sanity check
   on the paper's decoders. *)
let e10_lower_bound cfg =
  ignore cfg;
  (* theta(4,4,4) is bipartite, 1-forgetful, min degree 2 and carries
     two cycles: precisely the Theorem 1.5 hypothesis class *)
  let theta = Builders.theta 4 4 4 in
  let wm = Builders.watermelon [ 6; 6 ] in
  let expansion_rows =
    List.filter_map
      (fun (name, g, u, v) ->
        if not (Graph.mem_edge g u v) then None
        else
          Some
            (match Nb_walks.edge_expansion g ~r:1 ~u ~v with
            | Some w ->
                Report.check
                  (Printf.sprintf "Lemma 5.4 edge expansion on %s" name)
                  (Walks.is_closed_walk g w && Walks.is_non_backtracking g w
                  && List.length w mod 2 = 0)
                  ~expected:"even non-backtracking closed walk"
                  ~actual:(Printf.sprintf "walk of length %d" (List.length w))
            | None ->
                Report.check
                  (Printf.sprintf "Lemma 5.4 edge expansion on %s" name)
                  false ~expected:"even non-backtracking closed walk"
                  ~actual:"no expansion found"))
      [ ("watermelon[6;6]", wm, 2, 3); ("theta(4,4,4)", theta, 2, 3) ]
  in
  (* expand a full closed walk: one of the watermelon's constituent
     cycles *)
  let expand_row =
    let cycle_walk = [ 0; 2; 3; 4; 5; 6; 1; 11; 10; 9; 8; 7 ] in
    if not (Walks.is_closed_walk wm cycle_walk) then
      Report.check "Lemma 5.4 full-walk expansion" false ~expected:"walk"
        ~actual:"test walk broken"
    else
      match Nb_walks.expand_closed_walk wm ~r:1 cycle_walk with
      | Some w ->
          Report.check "Lemma 5.4 full-walk expansion preserves parity"
            (List.length w mod 2 = List.length cycle_walk mod 2
            && Walks.is_non_backtracking wm w)
            ~expected:"even, non-backtracking"
            ~actual:(Printf.sprintf "expanded to length %d" (List.length w))
      | None ->
          Report.check "Lemma 5.4 full-walk expansion" false
            ~expected:"expansion" ~actual:"failed"
  in
  (* Lemma 5.5 repair: a backtracking closed walk in the theta graph *)
  let repair_row =
    let c =
      match Metrics.shortest_path theta 0 1 with
      | Some p -> p
      | None -> assert false
    in
    ignore c;
    (* build a deliberately backtracking closed walk: tour one cycle of
       the theta graph, inserting a spike *)
    let tour = [ 0; 2; 3; 4; 1; 7; 6; 5 ] in
    if not (Walks.is_closed_walk theta tour) then
      Report.check "Lemma 5.5 repair" false ~expected:"walk" ~actual:"test walk broken"
    else begin
      let spiked = Walks.splice tour 2 [ 3; 2 ] in
      let was_backtracking = not (Walks.is_non_backtracking theta spiked) in
      match Nb_walks.repair_backtracking theta spiked with
      | Some fixed ->
          Report.check "Lemma 5.5 repair of a backtracking walk"
            (was_backtracking
            && Walks.is_non_backtracking theta fixed
            && List.length fixed mod 2 = List.length spiked mod 2)
            ~expected:"non-backtracking, same parity"
            ~actual:
              (Printf.sprintf "repaired %d -> %d" (List.length spiked)
                 (List.length fixed))
      | None ->
          Report.check "Lemma 5.5 repair of a backtracking walk" false
            ~expected:"repaired" ~actual:"failed"
    end
  in
  (* odd non-backtracking walks exist only in non-bipartite graphs *)
  let odd_walk_rows =
    [
      Report.check "no odd nb walk in bipartite theta(4,4,4)"
        (Nb_walks.odd_nb_closed_walk theta ~max_len:9 = None)
        ~expected:"none" ~actual:"none found";
      (let g5 = Builders.cycle 5 in
       match Nb_walks.odd_nb_closed_walk g5 ~max_len:7 with
       | Some w ->
           Report.check "odd nb walk found in C5"
             (Walks.is_non_backtracking g5 w && List.length w mod 2 = 1)
             ~expected:"odd nb closed walk"
             ~actual:(Printf.sprintf "length %d" (List.length w))
       | None ->
           Report.check "odd nb walk found in C5" false
             ~expected:"odd nb closed walk" ~actual:"none");
    ]
  in
  (* lift a node walk into V(D, n) and check the view-level
     non-backtracking notion *)
  let lift_row =
    let inst = Instance.make wm in
    let suite = D_trivial.suite ~k:2 in
    match Decoder.certify suite inst with
    | None -> Report.check "lift walk to V(D,n)" false ~expected:"lifted" ~actual:"no cert"
    | Some cert -> (
        let nbhd = Neighborhood.build ~mode:Neighborhood.Identified suite.Decoder.dec [ cert ] in
        let walk = [ 0; 2; 3; 4; 5; 6; 1; 11; 10; 9; 8; 7 ] in
        match Nb_walks.lift nbhd cert walk with
        | Some lifted ->
            let views = List.map (Neighborhood.view nbhd) lifted in
            Report.check "lifted instance walk is non-backtracking in V"
              (Nb_walks.is_non_backtracking_views views)
              ~expected:"non-backtracking" ~actual:"non-backtracking"
        | None ->
            Report.check "lift walk to V(D,n)" false ~expected:"lifted"
              ~actual:"views missing")
  in
  { Report.id = "E10"; title = "Lemmas 5.4-5.5: walk surgery on r-forgetful instances";
    rows = expansion_rows @ [ expand_row; repair_row ] @ odd_walk_rows @ [ lift_row ] }

(* ------------------------------------------------------------------ *)
(* E11: Ramsey / order-invariance reduction (Lemma 6.2)                 *)

(* A constant-size non-anonymous decoder with an identifier quirk: it
   behaves like the trivial 2-coloring verifier except that nodes whose
   identifier is divisible by 5 accept unconditionally. Lemma 6.2 says
   such quirks are invisible on a monochromatic identifier set. *)
let quirky =
  let trivial = D_trivial.decoder ~k:2 in
  Decoder.make ~name:"quirky" ~radius:1 ~anonymous:false (fun view ->
      View.center_id view mod 5 = 0 || trivial.Decoder.accepts view)

(* Lemma 6.2: decoder types, monochromatic identifier sets and the
   induced order-invariant decoder. *)
let e11_ramsey cfg =
  let ramsey_rows =
    [
      Report.check "R(3,3) = 6" (Ramsey.ramsey_number ~s:3 ~t:3 = 6)
        ~expected:"6" ~actual:(string_of_int (Ramsey.ramsey_number ~s:3 ~t:3));
      Report.check "5 -/-> (3,3)" (not (Ramsey.arrows ~n:5 ~s:3 ~t:3))
        ~expected:"false" ~actual:"false";
    ]
  in
  (* shapes: accepted and rejected radius-1 views of the quirky decoder
     on a labeled P4 *)
  let p4 = Instance.make (Builders.path 4) in
  let cert = Option.get (D_trivial.prover ~k:2 p4) in
  let good = Instance.with_labels p4 cert in
  let bad = Instance.with_labels p4 (Labeling.const (Builders.path 4) "0") in
  let shapes =
    Array.to_list (View.extract_all good ~r:1)
    @ Array.to_list (View.extract_all bad ~r:1)
  in
  let universe = List.init 12 (fun i -> i + 1) in
  let mono = Ramsey.monochromatic_ids quirky ~shapes ~universe ~size:5 in
  let mono_row =
    Report.check "monochromatic identifier set of size 5 found" (mono <> None)
      ~expected:"found"
      ~actual:
        (match mono with
        | Some ids -> String.concat "," (List.map string_of_int ids)
        | None -> "none")
  in
  let rest_rows =
    match mono with
    | None -> []
    | Some ids ->
        let d' = Ramsey.order_invariant_decoder quirky ~mono:ids in
        let rng = Run_cfg.rng cfg in
        let test_instances = [ good; bad ] in
        let oi =
          Checker.is_pass
            (Checker.order_invariance d' ~trials:20 rng test_instances)
        in
        (* D' agrees with the quirk-free trivial decoder everywhere *)
        let trivial = D_trivial.decoder ~k:2 in
        let agrees =
          List.for_all
            (fun inst -> Decoder.run d' inst = Decoder.run trivial inst)
            test_instances
        in
        [
          Report.check "derived decoder D' is order-invariant" oi
            ~expected:"order-invariant" ~actual:(string_of_bool oi);
          Report.check "D' sheds the identifier quirk (= trivial decoder)"
            agrees ~expected:"agree" ~actual:(string_of_bool agrees);
        ]
  in
  { Report.id = "E11"; title = "Lemma 6.2: Ramsey order-invariance reduction";
    rows = ramsey_rows @ (mono_row :: rest_rows) }

(* ------------------------------------------------------------------ *)
(* E12: certificate sizes                                               *)

(* Certificate-size series for all decoders against their stated
   asymptotics. *)
let e12_cert_sizes cfg =
  ignore cfg;
  let measure suite inst =
    match Decoder.certify suite inst with
    | Some c -> Labeling.max_bits c.Instance.labels
    | None -> -1
  in
  let sized name suite mk ns ~constant =
    let sizes = List.map (fun n -> (n, measure suite (mk n))) ns in
    let values =
      String.concat ", "
        (List.map (fun (n, b) -> Printf.sprintf "n=%d:%db" n b) sizes)
    in
    let bits = List.map snd sizes in
    let ok =
      List.for_all (fun b -> b >= 0) bits
      &&
      if constant then
        List.for_all (fun b -> b = List.hd bits) bits
      else
        (* sub-linear growth: readable certificates grow at most
           logarithmically x constant factor *)
        let first = float_of_int (List.hd bits) in
        let last = float_of_int (List.nth bits (List.length bits - 1)) in
        last <= 4.0 *. first
    in
    Report.check name ok
      ~expected:(if constant then "constant" else "O(log n)-ish growth")
      ~actual:values
  in
  let rows =
    [
      sized "trivial k=2 (O(1))" (D_trivial.suite ~k:2)
        (fun n -> Instance.make (Builders.path n))
        [ 4; 8; 16 ] ~constant:true;
      sized "degree-one (O(1))" D_degree_one.suite
        (fun n -> Instance.make (Builders.path n))
        [ 4; 8; 16; 32 ] ~constant:true;
      sized "even-cycle (O(1))" D_even_cycle.suite
        (fun n -> Instance.make (Builders.cycle n))
        [ 4; 8; 16; 32 ] ~constant:true;
      sized "spanning (O(log n))" D_spanning.suite
        (fun n -> Instance.make (Builders.path n))
        [ 4; 16; 64 ] ~constant:false;
      sized "shatter (O(min(D^2,n)+log n))" D_shatter.suite
        (fun n -> Instance.make (Builders.path n))
        [ 5; 10; 40 ] ~constant:false;
      sized "watermelon (O(log n))" D_watermelon.suite
        (fun n -> Instance.make (Builders.watermelon [ n; n ]))
        [ 3; 6; 12 ] ~constant:false;
    ]
  in
  (* shatter's component term: spiders with growing leg count *)
  let spider_row =
    let bits legs = measure D_shatter.suite (Instance.make (spider legs 2)) in
    let b3 = bits 3 and b6 = bits 6 in
    Report.check "shatter certificate grows with component count"
      (b3 > 0 && b6 > b3)
      ~expected:"more components -> larger"
      ~actual:(Printf.sprintf "3 legs: %db, 6 legs: %db" b3 b6)
  in
  { Report.id = "E12"; title = "Certificate sizes vs the paper's bounds";
    rows = rows @ [ spider_row ] }

(* ------------------------------------------------------------------ *)
(* E13: synchronous simulator                                           *)

(* Sec. 2.2: the message-passing simulator agrees with View.extract. *)
let e13_sync cfg =
  let rng = Run_cfg.rng cfg in
  let cases =
    List.init 6 (fun i ->
        let n = 6 + i in
        let g = Builders.random_connected rng n 0.25 in
        Instance.random rng g)
  in
  let rows =
    List.concat_map
      (fun r ->
        List.mapi
          (fun i inst ->
            let ok = Sync_runner.knowledge_matches_view inst ~r in
            Report.check
              (Printf.sprintf "flooding = View.extract (instance %d, r=%d)" i r)
              ok ~expected:"equal" ~actual:(string_of_bool ok))
          cases)
      [ 1; 2; 3 ]
  in
  let msg_row =
    let g = Builders.cycle 8 in
    let m = Sync_runner.messages_sent g ~rounds:3 in
    Report.check "message count = 2|E|r" (m = 2 * 8 * 3) ~expected:"48"
      ~actual:(string_of_int m)
  in
  (* asynchronous execution under adversarial scheduling still yields
     (at least) the view knowledge: the paper's round-based verifiers
     lose no generality *)
  let async_rows =
    List.mapi
      (fun i inst ->
        let ok = Async_runner.eventually_matches_views inst ~r:2 in
        Report.check
          (Printf.sprintf "async quiescence covers views (instance %d)" i)
          ok ~expected:"covered under all schedulers" ~actual:(string_of_bool ok))
      (List.filteri (fun i _ -> i < 3) cases)
  in
  let async_sync_row =
    let inst = List.hd cases in
    let final, _ = Async_runner.run_to_quiescence inst in
    let sync = Sync_runner.run inst ~rounds:(Instance.order inst) in
    Report.check "async fixpoint = sync fixpoint" (final = sync)
      ~expected:"equal" ~actual:(string_of_bool (final = sync))
  in
  { Report.id = "E13"; title = "Sec. 2.2: message-passing simulators vs views";
    rows = rows @ (msg_row :: async_rows) @ [ async_sync_row ] }

(* ------------------------------------------------------------------ *)
(* E14: the promise-free separation motivation (Sec. 1) in SLOCAL       *)

(* Sec. 1 motivation: the Pi problem (3-color the certified region) in
   an SLOCAL simulator — revealing certificates admit an
   extraction-based SLOCAL(1) solution, hiding ones strand it. *)
let e14_slocal cfg =
  let rng = Run_cfg.rng cfg in
  (* (a) the online-LOCAL promise: under strongly sound certification,
     adversarial labelings always leave a bipartite accepted region *)
  let promise_row =
    let suite = D_union.suite in
    let g = Builders.friendship 3 in
    let inst = Instance.make g in
    let ok = ref true in
    for _ = 1 to 500 do
      let lab = Labeling.random rng ~alphabet:D_union.alphabet g in
      let sub, _ =
        Decoder.accepted_subgraph suite.Decoder.dec (Instance.with_labels inst lab)
      in
      if not (Coloring.is_bipartite sub) then ok := false
    done;
    Report.check "accepted regions stay 2-colorable (the Pi promise)" !ok
      ~expected:"always bipartite" ~actual:(string_of_bool !ok)
  in
  (* (b) with revealing certificates, SLOCAL(1) solves Pi by extraction *)
  let trivial = D_trivial.suite ~k:2 in
  let graphs =
    classes 4 @ classes 3 |> List.filter Coloring.is_bipartite
  in
  let fam =
    Neighborhood.exhaustive_family trivial ~graphs ~ports:`All
      ~ids:(`Canonical_bound 8) ~cfg ()
  in
  let reveal_row =
    match Extractor.of_verdict (Hiding.check ~k:2 trivial.Decoder.dec fam) with
    | None ->
        Report.check "extraction-based SLOCAL(1) on revealing certificates" false
          ~expected:"solves" ~actual:"no extractor"
    | Some ex ->
        let algo = Slocal.of_local_algo ex.Extractor.algo in
        let works =
          List.for_all
            (fun inst ->
              let colors = Slocal.execute_canonical algo inst in
              Coloring.is_proper inst.Instance.graph colors)
            fam
        in
        Report.check "extraction-based SLOCAL(1) on revealing certificates" works
          ~expected:"proper 2-colorings" ~actual:(string_of_bool works)
  in
  (* (c) with hiding certificates the same strategy is stranded: the
     even-cycle decoder's V is not 2-colorable, so no extraction-based
     SLOCAL algorithm exists at all; greedy first-fit with 2 colors also
     fails on some processing order while 3 colors always suffice *)
  let cyc_fam =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 6 ]
      ~ports:`All ~cfg ()
  in
  let hiding_row =
    let stranded = Hiding.is_hiding_on ~k:2 D_even_cycle.decoder cyc_fam in
    Report.check "no extraction strategy exists under hiding certificates"
      stranded ~expected:"V(D,6) not 2-colorable" ~actual:(string_of_bool stranded)
  in
  let greedy_rows =
    let inst = List.hd cyc_fam in
    let g = inst.Instance.graph in
    let all_orders =
      (* permutations of 6 nodes *)
      let rec perms = function
        | [] -> [ [] ]
        | l ->
            List.concat_map
              (fun x ->
                List.map (fun p -> x :: p)
                  (perms (List.filter (fun y -> y <> x) l)))
              l
      in
      perms (Graph.nodes g)
    in
    let ff2 = Slocal.first_fit_k ~radius:1 ~k:2 in
    let ff2_fails_somewhere =
      List.exists
        (fun order ->
          let out = Slocal.execute ff2 inst ~order in
          Array.exists (fun c -> c < 0) out
          || not (Coloring.is_proper g out))
        all_orders
    in
    let greedy3_always =
      List.for_all
        (fun order ->
          let out = Slocal.execute (Slocal.greedy_coloring ~radius:1) inst ~order in
          Coloring.is_proper g out
          && Array.for_all (fun c -> c <= 2) out)
        all_orders
    in
    [
      Report.check "2-color first-fit fails on some order (certs do not help it)"
        ff2_fails_somewhere ~expected:"some order fails"
        ~actual:(string_of_bool ff2_fails_somewhere);
      Report.check "3-color greedy succeeds on every order (Delta+1)"
        greedy3_always ~expected:"all orders succeed"
        ~actual:(string_of_bool greedy3_always);
    ]
  in
  { Report.id = "E14"; title = "Sec. 1 motivation: SLOCAL and the Pi problem";
    rows = (promise_row :: reveal_row :: hiding_row :: greedy_rows) }

(* ------------------------------------------------------------------ *)
(* E15: quantified hiding (Sec. 2.4 future work)                        *)

(* Sec. 2.4 future work: quantified hiding levels via exhaustive
   search over all radius-1 extractors. *)
let e15_quantified cfg =
  (* even-cycle decoder on C4: every view lies on odd cycles, so even
     the best extractor must fail on a constant fraction of nodes *)
  let fam4 =
    Neighborhood.exhaustive_family D_even_cycle.suite ~graphs:[ Builders.cycle 4 ]
      ~ports:`All ~cfg ()
  in
  let nbhd4 = Neighborhood.build D_even_cycle.decoder fam4 in
  let res4 = Quantified.best_extractor ~k:2 nbhd4 fam4 in
  let cyc_rows =
    [
      Report.check "search over all extractors is exact on C4" res4.Quantified.exact
        ~expected:"exact" ~actual:(string_of_bool res4.Quantified.exact);
      Report.check "even-cycle decoder hides a constant fraction"
        (Quantified.hiding_level res4 > 0.0)
        ~expected:"> 0"
        ~actual:(Printf.sprintf "hiding level %.2f" (Quantified.hiding_level res4));
    ]
  in
  (* degree-one decoder: hiding is concentrated at the bot/top pair, so
     extraction succeeds on all but a vanishing share of nodes *)
  let d1_fam =
    Neighborhood.exhaustive_family D_degree_one.suite
      ~graphs:(min_degree_one_family ~cfg ~max_n:4 ())
      ~cfg ()
  in
  let d1_nbhd = Neighborhood.build D_degree_one.decoder d1_fam in
  let res1 = Quantified.best_extractor ~k:2 d1_nbhd d1_fam in
  let d1_rows =
    [
      Report.check "degree-one decoder also hides (> 0)"
        (Quantified.hiding_level res1 > 0.0)
        ~expected:"> 0"
        ~actual:(Printf.sprintf "hiding level %.2f" (Quantified.hiding_level res1));
    ]
  in
  (* the revealing baseline extracts everything *)
  let trivial = D_trivial.suite ~k:2 in
  let tf =
    List.filter_map
      (fun g -> Decoder.certify trivial (Instance.make g))
      [ Builders.path 4; Builders.cycle 4 ]
  in
  let t_nbhd = Neighborhood.build trivial.Decoder.dec tf in
  let rest = Quantified.best_extractor ~k:2 t_nbhd tf in
  let t_row =
    Report.check "trivial baseline: full extraction"
      (rest.Quantified.worst_case_success = 1.0)
      ~expected:"success 1.0"
      ~actual:(Printf.sprintf "%.2f" rest.Quantified.worst_case_success)
  in
  { Report.id = "E15"; title = "Sec. 2.4 future work: quantified hiding";
    rows = cyc_rows @ d1_rows @ [ t_row ] }

(* ------------------------------------------------------------------ *)
(* E16: the k-coloring generalization of Lemma 4.1                      *)

(* Sec. 1.3 general k: the hidden-leaf decoder battery at k = 2, 3. *)
let e16_hidden_leaf cfg =
  let rng = Run_cfg.rng cfg in
  let rows_for ~k =
    let suite = D_hidden_leaf.suite ~k in
    let yes_family =
      min_degree_one_family ~cfg ~max_n:5 ()
      |> List.filter (fun g -> Coloring.is_k_colorable g ~k)
      |> List.map Instance.make
    in
    let completeness =
      (* completeness for the k-col language: the promise class filters
         by k-colorability, so check acceptance directly *)
      let ok =
        List.for_all
          (fun inst ->
            match Decoder.certify suite inst with
            | Some c -> Decoder.accepts_all suite.Decoder.dec c
            | None -> not (suite.Decoder.promise inst.Instance.graph))
          yes_family
      in
      Report.check
        (Printf.sprintf "k=%d completeness (%d instances)" k (List.length yes_family))
        ok ~expected:"accepted" ~actual:(string_of_bool ok)
    in
    let strong =
      let instances =
        List.map Instance.make
          (List.concat_map (fun n -> classes n) [ 3; 4 ])
      in
      let ok =
        List.for_all
          (fun inst ->
            let exception Bad in
            try
              Labeling.iter_all ~alphabet:(D_hidden_leaf.alphabet ~k)
                inst.Instance.graph (fun lab ->
                  let sub, _ =
                    Decoder.accepted_subgraph suite.Decoder.dec
                      (Instance.with_labels inst (Array.copy lab))
                  in
                  if not (Coloring.is_k_colorable sub ~k) then raise Bad);
              true
            with Bad -> false)
          instances
      in
      Report.check
        (Printf.sprintf "k=%d strong soundness (all labelings, n<=4)" k)
        ok ~expected:"accepting subgraphs k-colorable" ~actual:(string_of_bool ok)
    in
    let anonymity =
      verdict_row
        (Printf.sprintf "k=%d anonymity" k)
        ~expect_pass:true
        (Checker.anonymity suite.Decoder.dec ~trials:10 rng
           (List.filter_map (Decoder.certify suite) yes_family))
    in
    (* Hiding diverges between k = 2 and k >= 3. At k = 2 the leaf trick
       hides (odd cycle in V). At k = 3 the small-scale neighborhood
       graphs remain 3-colorable — the Lemma 3.2 extractor re-colors
       freely, so a leaf that merely cannot see one designated color is
       not enough — and we exhibit the working k = 3 extractor instead
       (the constructive general-k direction of Lemma 3.2). *)
    let fam =
      Neighborhood.exhaustive_family suite
        ~graphs:(min_degree_one_family ~cfg ~max_n:4 ()
                 |> List.filter (fun g -> Coloring.is_k_colorable g ~k))
        ~cfg ()
    in
    let yes g = Coloring.is_k_colorable g ~k in
    let hiding =
      match (k, Hiding.check ~yes ~k suite.Decoder.dec fam) with
      | 2, Hiding.Hiding { witness; nbhd } ->
          Report.check "k=2 hiding: odd cycle in V" true ~expected:"witness exists"
            ~actual:
              (Printf.sprintf "witness of %d views (|V|=%d)" (List.length witness)
                 (Neighborhood.order nbhd))
      | 2, Hiding.Colorable _ ->
          Report.check "k=2 hiding" false ~expected:"witness exists"
            ~actual:"V 2-colorable"
      | _, (Hiding.Colorable _ as verdict) -> (
          match Extractor.of_verdict verdict with
          | Some ex ->
              let works =
                List.for_all
                  (fun inst ->
                    let colors = Extractor.extract ex inst in
                    Array.for_all (fun c -> c >= 0) colors
                    && Coloring.is_proper inst.Instance.graph colors)
                  fam
              in
              Report.check
                (Printf.sprintf
                   "k=%d: V stays %d-colorable and the Lemma 3.2 extractor works"
                   k k)
                works ~expected:"extraction succeeds" ~actual:(string_of_bool works)
          | None ->
              Report.check (Printf.sprintf "k=%d extractor" k) false
                ~expected:"built" ~actual:"missing")
      | _, Hiding.Hiding { witness; _ } ->
          Report.check
            (Printf.sprintf "k=%d: unexpectedly non-%d-colorable V" k k)
            true ~expected:"(bonus hiding witness)"
            ~actual:(Printf.sprintf "witness of %d views" (List.length witness))
    in
    [ completeness; strong; anonymity; hiding ]
  in
  { Report.id = "E16";
    title = "Sec. 1.3 general k: the hidden-leaf decoder at k = 2 and k = 3";
    rows = rows_for ~k:2 @ rows_for ~k:3 }

(* ------------------------------------------------------------------ *)
(* E17: exhaustive decoder-space search — is the even-cycle scheme      *)
(* minimal-ish? No 1-bit port-oblivious anonymous decoder is a strong   *)
(* and hiding LCP on even cycles.                                       *)

(* Exhaustive search over all 64 one-bit port-oblivious anonymous
   decoders: none is simultaneously complete, strong and hiding on
   even cycles — the Lemma 4.2 construction's use of ports is
   essential. *)
let e17_decoder_space cfg =
  (* a port-oblivious 1-bit decoder is determined by its accept-set over
     the 6 view classes (own bit, multiset of the two neighbor bits) *)
  let class_of view =
    match
      ( Certificate.int_field (View.center_label view),
        List.map
          (fun (w, _, _) -> Certificate.int_field (View.label view w))
          (View.center_neighbors view) )
    with
    | Some own, [ Some a; Some b ] when own <= 1 && a <= 1 && b <= 1 ->
        Some ((own * 3) + a + b)
    | _ -> None
  in
  let decoder_of mask =
    Decoder.make
      ~name:(Printf.sprintf "1bit-%02d" mask)
      ~radius:1 ~anonymous:true
      (fun view ->
        match class_of view with
        | Some c -> mask land (1 lsl c) <> 0
        | None -> false)
  in
  let alphabet = [ "0"; "1" ] in
  let complete dec =
    List.for_all
      (fun n ->
        Prover.find_accepted dec ~alphabet (Instance.make (Builders.cycle n)) <> None)
      [ 4; 6 ]
  in
  let strong dec =
    List.for_all
      (fun g ->
        let inst = Instance.make g in
        let exception Bad in
        try
          Labeling.iter_all ~alphabet g (fun lab ->
              let sub, _ =
                Decoder.accepted_subgraph dec
                  (Instance.with_labels inst (Array.copy lab))
              in
              if not (Coloring.is_bipartite sub) then raise Bad);
          true
        with Bad -> false)
      [ Builders.cycle 3; Builders.cycle 4; Builders.cycle 5; Builders.cycle 6 ]
  in
  let hiding dec =
    let suite =
      {
        Decoder.dec;
        promise = (fun g -> Graph.is_cycle g && Graph.order g mod 2 = 0);
        prover = (fun _ -> None);
        adversary_alphabet = (fun _ -> alphabet);
        cert_bits = (fun _ -> 1);
      }
    in
    let fam =
      Neighborhood.exhaustive_family suite
        ~graphs:[ Builders.cycle 4; Builders.cycle 6 ]
        ~ports:`All ~cfg ()
    in
    fam <> [] && Hiding.is_hiding_on ~k:2 dec fam
  in
  let complete_count = ref 0 in
  let strong_count = ref 0 in
  let all_three = ref 0 in
  for mask = 0 to 63 do
    let dec = decoder_of mask in
    let c = complete dec in
    if c then incr complete_count;
    if c && strong dec then begin
      incr strong_count;
      if hiding dec then incr all_three
    end
  done;
  {
    Report.id = "E17";
    title = "decoder-space search: 1-bit port-oblivious LCPs on even cycles";
    rows =
      [
        Report.check "some 1-bit decoders are complete" (!complete_count > 0)
          ~expected:"> 0 (e.g. the revealing one)"
          ~actual:(Printf.sprintf "%d of 64" !complete_count);
        Report.check "some are complete and strongly sound" (!strong_count > 0)
          ~expected:"> 0" ~actual:(Printf.sprintf "%d of 64" !strong_count);
        Report.check
          "none is simultaneously complete, strong and hiding (ports are essential)"
          (!all_three = 0) ~expected:"0 of 64"
          ~actual:(Printf.sprintf "%d of 64" !all_three);
      ];
  }

(* ------------------------------------------------------------------ *)
(* E18: resilient labeling (Sec. 1.2 related work)                      *)

(* Sec. 1.2 related work: the resilient-labeling wrapper survives
   certificate erasures and detects tampered backups. *)
let e18_resilient cfg =
  let rng = Run_cfg.rng cfg in
  let base = D_trivial.suite ~k:2 in
  let res = Resilient.wrap base in
  let graphs = [ Builders.path 6; Builders.cycle 6; Builders.grid 3 3 ] in
  let completeness =
    verdict_row "wrapped completeness (no erasures)" ~expect_pass:true
      (Checker.completeness res (List.map Instance.make graphs))
  in
  let single_erasures =
    let ok =
      List.for_all
        (fun g ->
          let inst = Instance.make g in
          match Decoder.certify res inst with
          | None -> false
          | Some certified ->
              List.for_all
                (fun v ->
                  Decoder.accepts_all res.Decoder.dec
                    (Resilient.erase certified ~nodes:[ v ]))
                (Graph.nodes g))
        graphs
    in
    Report.check "accepted after every single-certificate erasure" ok
      ~expected:"resilient" ~actual:(string_of_bool ok)
  in
  let independent_erasures =
    let g = Builders.path 6 in
    let inst = Option.get (Decoder.certify res (Instance.make g)) in
    let erased = [ 0; 2; 4 ] in
    let ok =
      Resilient.reconstructible g ~erased
      && Decoder.accepts_all res.Decoder.dec (Resilient.erase inst ~nodes:erased)
    in
    Report.check "accepted after erasing an independent set" ok
      ~expected:"resilient" ~actual:(string_of_bool ok)
  in
  let tamper =
    let g = Builders.path 4 in
    let inst = Option.get (Decoder.certify res (Instance.make g)) in
    (* corrupt node 1's backup about node 0, then erase node 0: the
       reconstructors now disagree with node 2's backup or accept a
       wrong certificate - either way some node must reject *)
    let lab = Array.copy inst.Instance.labels in
    lab.(1) <-
      (match String.split_on_char '|' lab.(1) with
      | own :: _ -> own ^ "|p1=1|p2=0"
      | [] -> assert false);
    let tampered = Resilient.erase (Instance.with_labels inst lab) ~nodes:[ 0 ] in
    let ok = not (Decoder.accepts_all res.Decoder.dec tampered) in
    Report.check "tampered backups detected" ok ~expected:"rejected"
      ~actual:(string_of_bool ok)
  in
  let strong =
    verdict_row "wrapped strong soundness (mutation adversary)" ~expect_pass:true
      (Checker.strong_soundness_random res ~k:2 ~trials:1000 rng
         [ Instance.make (Builders.cycle 5) ])
  in
  let radius =
    Report.check "wrapped decoder runs one extra round"
      (res.Decoder.dec.Decoder.radius = base.Decoder.dec.Decoder.radius + 1)
      ~expected:"r + 1"
      ~actual:(string_of_int res.Decoder.dec.Decoder.radius)
  in
  { Report.id = "E18"; title = "Sec. 1.2 related work: resilient labeling";
    rows = [ completeness; single_erasures; independent_erasures; tamper; strong; radius ] }

(* ------------------------------------------------------------------ *)
(* E19: hiding against stronger extractors                              *)

(* Hiding pitted against extractors with a larger radius than the
   decoder: the even-cycle construction keeps hiding until the
   extractor's ball nearly covers the ring. *)
let e19_extractor_radius cfg =
  (* Hiding (Sec. 2.4) pits an r-round decoder against r-round
     extractors of the same kind (anonymous decoders against anonymous
     extractors). Handing the extractor a LARGER radius r' asks how
     robust the constructions are; Lemma 3.2 applies verbatim to the
     radius-r' neighborhood graph. Measured:

     - the even-cycle scheme defeats anonymous extractors of EVERY
       radius: across the port-assignment space, some accepted ring has
       two adjacent nodes with reflection-isomorphic views - a looped
       view class, which no extractor can color;
     - the degree-one scheme (loop-free on its family) is hiding at
       r' = 1 but extractable by radius-2 anonymous extractors on the
       n <= 4 family, whose views then cover the whole instance;
     - against identifier-aware extractors on the canonically-identified
       family the neighborhood graph is colorable - consistent with the
       paper defining anonymous hiding against anonymous extractors. *)
  let cyc_fam =
    Neighborhood.exhaustive_family D_even_cycle.suite
      ~graphs:[ Builders.cycle 6 ] ~ports:`All ~cfg ()
  in
  let cyc_rows =
    List.map
      (fun r' ->
        let nbhd =
          Neighborhood.build ~view_radius:r' D_even_cycle.decoder cyc_fam
        in
        let hiding = not (Neighborhood.is_k_colorable nbhd ~k:2) in
        Report.check
          (Printf.sprintf "even-cycle vs %d-round anonymous extractors" r')
          hiding ~expected:"still hiding"
          ~actual:
            (Printf.sprintf "hiding=%b (%d looped view classes, |V|=%d)" hiding
               (List.length nbhd.Neighborhood.loops)
               (Neighborhood.order nbhd)))
      [ 1; 2; 3 ]
  in
  let d1_fam =
    Neighborhood.exhaustive_family D_degree_one.suite
      ~graphs:(min_degree_one_family ~cfg ~max_n:4 ())
      ~cfg ()
  in
  let d1_hiding =
    let nbhd = Neighborhood.build ~view_radius:1 D_degree_one.decoder d1_fam in
    let hiding = not (Neighborhood.is_k_colorable nbhd ~k:2) in
    Report.check "degree-one vs 1-round extractors" hiding ~expected:"hiding"
      ~actual:(string_of_bool hiding)
  in
  let d1_broken =
    let nbhd = Neighborhood.build ~view_radius:2 D_degree_one.decoder d1_fam in
    match Extractor.of_verdict (Hiding.of_neighborhood ~k:2 nbhd) with
    | Some ex ->
        let works = List.for_all (Extractor.extraction_succeeds ex) d1_fam in
        Report.check
          "degree-one (n<=4) vs 2-round extractors: extractor verified" works
          ~expected:"extractable (views cover the instance)"
          ~actual:(string_of_bool works)
    | None ->
        Report.check "degree-one (n<=4) vs 2-round extractors" false
          ~expected:"extractable" ~actual:"still hiding"
  in
  let identified_row =
    let nbhd =
      Neighborhood.build ~mode:Neighborhood.Identified ~view_radius:1
        D_even_cycle.decoder cyc_fam
    in
    let colorable = Neighborhood.is_k_colorable nbhd ~k:2 in
    Report.check
      "identifier-aware comparison is colorable (anonymity is essential)"
      colorable
      ~expected:"colorable on canonically-identified family"
      ~actual:
        (Printf.sprintf "colorable=%b, loops=%d" colorable
           (List.length nbhd.Neighborhood.loops))
  in
  { Report.id = "E19";
    title = "hiding vs stronger extractors: loops defeat every radius on rings";
    rows = cyc_rows @ [ d1_hiding; d1_broken; identified_row ] }

(* ------------------------------------------------------------------ *)
(* E20: the round/size trade-off                                        *)

(* The round/size trade-off: one extra verification round admits a
   strong and hiding LCP on even cycles with single-bit certificates,
   which E17 proves impossible in one round. *)
let e20_edge_bit cfg =
  let heavy = cfg.Run_cfg.heavy in
  (* E17 rules out 1-bit one-round decoders; D_edge_bit spends a second
     round instead of Lemma 4.2's six bits: each node publishes only the
     color of its port-1 edge, and radius-2 verifiers solve their local
     alternation systems. The full battery passes: a strong and hiding
     LCP for 2-col on even cycles with single-bit certificates. *)
  let suite = D_edge_bit.suite in
  let rng = Run_cfg.rng cfg in
  let yes_family =
    List.map (fun n -> Instance.make (Builders.cycle n)) [ 4; 6; 8; 10 ]
  in
  let completeness =
    verdict_row "completeness (C4..C10)" ~expect_pass:true
      (Checker.completeness suite yes_family)
  in
  let soundness_all_ports =
    let ns = if heavy then [ 3; 5; 7; 9 ] else [ 3; 5; 7 ] in
    let ok =
      List.for_all
        (fun n ->
          let g = Builders.cycle n in
          List.for_all
            (fun prt ->
              Prover.find_accepted suite.Decoder.dec
                ~alphabet:D_edge_bit.alphabet
                (Instance.make g ~ports:prt)
              = None)
            (Port.enumerate g))
        ns
    in
    Report.check
      (Printf.sprintf "soundness on odd rings x all ports (up to C%d)"
         (List.fold_left max 0 ns))
      ok ~expected:"no accepted labeling" ~actual:(string_of_bool ok)
  in
  let strong =
    let ns = if heavy then [ 3; 4; 5; 6 ] else [ 3; 4; 5 ] in
    let ok =
      List.for_all
        (fun n ->
          let g = Builders.cycle n in
          List.for_all
            (fun prt ->
              let inst = Instance.make g ~ports:prt in
              let exception Bad in
              try
                Labeling.iter_all ~alphabet:D_edge_bit.alphabet g (fun lab ->
                    let sub, _ =
                      Decoder.accepted_subgraph suite.Decoder.dec
                        (Instance.with_labels inst (Array.copy lab))
                    in
                    if not (Coloring.is_bipartite sub) then raise Bad);
                true
              with Bad -> false)
            (Port.enumerate g))
        ns
    in
    Report.check "strong soundness (all labelings x all ports)" ok
      ~expected:"accepting subgraphs bipartite" ~actual:(string_of_bool ok)
  in
  let anonymity =
    verdict_row "anonymity" ~expect_pass:true
      (Checker.anonymity suite.Decoder.dec ~trials:10 rng
         (List.filter_map (Decoder.certify suite) yes_family))
  in
  let hiding =
    let fam =
      Neighborhood.exhaustive_family suite ~graphs:[ Builders.cycle 6 ]
        ~ports:`All ~cfg ()
    in
    let nbhd = Neighborhood.build suite.Decoder.dec fam in
    let hiding = not (Neighborhood.is_k_colorable nbhd ~k:2) in
    Report.check "hiding with single-bit certificates" hiding
      ~expected:"hiding"
      ~actual:
        (Printf.sprintf "hiding=%b (|V|=%d, %d loops)" hiding
           (Neighborhood.order nbhd)
           (List.length nbhd.Neighborhood.loops))
  in
  let size_row =
    Report.check "certificate size vs Lemma 4.2" true
      ~expected:"1 bit at r=2 vs 6 bits at r=1"
      ~actual:
        (Printf.sprintf "%d bit (r=%d) vs %d bits (r=%d)"
           (suite.Decoder.cert_bits (Instance.make (Builders.cycle 6)))
           suite.Decoder.dec.Decoder.radius
           (D_even_cycle.suite.Decoder.cert_bits (Instance.make (Builders.cycle 6)))
           D_even_cycle.decoder.Decoder.radius)
  in
  { Report.id = "E20";
    title = "round/size trade-off: a 1-bit 2-round strong and hiding LCP on rings";
    rows = [ completeness; soundness_all_ports; strong; anonymity; hiding; size_row ] }

let all =
  [
    ("E1", e1_forgetful);
    ("E2", e2_views);
    ("E3", e3_degree_one);
    ("E4", e4_even_cycle);
    ("E5", e5_union);
    ("E6", e6_shatter);
    ("E7", e7_watermelon);
    ("E8", e8_extraction);
    ("E9", e9_realizability);
    ("E10", e10_lower_bound);
    ("E11", e11_ramsey);
    ("E12", e12_cert_sizes);
    ("E13", e13_sync);
    ("E14", e14_slocal);
    ("E15", e15_quantified);
    ("E16", e16_hidden_leaf);
    ("E17", e17_decoder_space);
    ("E18", e18_resilient);
    ("E19", e19_extractor_radius);
    ("E20", e20_edge_bit);
  ]

let run_all ?(cfg = Run_cfg.default) () =
  List.filter_map
    (fun (id, experiment) ->
      if Run_cfg.expired cfg then begin
        Run_cfg.progress cfg (id ^ " skipped: deadline expired");
        None
      end
      else begin
        let r =
          Run_cfg.span cfg ("experiments/" ^ id) (fun () ->
              experiment cfg)
        in
        Run_cfg.count cfg "experiments_run";
        Run_cfg.progress cfg (Report.summary_line r);
        Some r
      end)
    all
