(* Automorphism harvesting (Lcp_engine.Auto): the group extracted from
   Canon's branch-and-bound over the refined cells, validated against
   brute-force enumeration of all n! vertex permutations on every class
   of every order up to 6 (connected and disconnected alike — Aut does
   not care), and against the one-cell witness list of the list-based
   oracle up to n = 7 (n = 8 under LCP_HEAVY). *)

open Lcp_graph
open Helpers
module Auto = Lcp_engine.Auto

let heavy_enabled = Sys.getenv_opt "LCP_HEAVY" <> None

(* every permutation of 0..n-1, as arrays *)
let all_perms n =
  let acc = ref [] in
  let used = Array.make n false in
  let cur = Array.make n 0 in
  let rec go i =
    if i = n then acc := Array.copy cur :: !acc
    else
      for x = 0 to n - 1 do
        if not used.(x) then begin
          used.(x) <- true;
          cur.(i) <- x;
          go (i + 1);
          used.(x) <- false
        end
      done
  in
  go 0;
  List.rev !acc

let is_automorphism g p =
  let ok = ref true in
  Graph.iter_edges (fun u v -> if not (Graph.mem_edge g p.(u) p.(v)) then ok := false) g;
  !ok

let brute_aut g =
  let n = Graph.order g in
  List.filter (is_automorphism g) (all_perms n)

let sorted_perms ps = List.sort compare (List.map Array.to_list ps)

(* every class on 1..max_n nodes, disconnected ones included: the
   mask-scan oracle's listing *)
let corpus max_n =
  List.concat_map
    (fun n -> Lcp_oracle.Mask_scan.iso_classes ~connected:false n)
    (List.init max_n (fun i -> i + 1))

let check_group_equals_brute max_n () =
  List.iter
    (fun g ->
      let brute = brute_aut g in
      let auto = Auto.of_graph g in
      check_int
        (Printf.sprintf "|Aut| on %s" (graph_to_string g))
        (List.length brute) (Auto.size auto);
      check_bool
        (Printf.sprintf "group elements on %s" (graph_to_string g))
        true
        (sorted_perms brute = sorted_perms (Array.to_list (Auto.perms auto))))
    (corpus max_n)

let test_group_small () = check_group_equals_brute 5 ()

let test_group_n6 () =
  if not heavy_enabled then () else check_group_equals_brute 6 ()

(* closure of the generating set under composition = the full group *)
let closure n gens =
  let tbl = Hashtbl.create 64 in
  let id = Array.init n Fun.id in
  let add p = Hashtbl.replace tbl (Array.to_list p) p in
  add id;
  let frontier = ref [ id ] in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun p ->
        List.iter
          (fun gen ->
            let q = Array.init n (fun v -> gen.(p.(v))) in
            if not (Hashtbl.mem tbl (Array.to_list q)) then begin
              add q;
              next := q :: !next
            end)
          gens)
      !frontier;
    frontier := !next
  done;
  Hashtbl.fold (fun _ p acc -> p :: acc) tbl []

let test_generators_generate () =
  List.iter
    (fun g ->
      let auto = Auto.of_graph g in
      let gens = Auto.generators auto in
      check_bool "trivial group iff no generators" (Auto.is_trivial auto)
        (gens = []);
      check_bool
        (Printf.sprintf "generators close to the full group on %s"
           (graph_to_string g))
        true
        (sorted_perms (closure (Graph.order g) gens)
        = sorted_perms (Array.to_list (Auto.perms auto))))
    (corpus 5)

(* known groups: |Aut C5| = 10 (dihedral), |Aut K4| = 24, |Aut P4| = 2,
   |Aut K3,3| = 72, rigid example from the n=6 corpus *)
let test_known_sizes () =
  let size g = Auto.size (Auto.of_graph g) in
  check_int "C5 dihedral" 10 (size (Builders.cycle 5));
  check_int "K4 symmetric" 24 (size (Builders.complete 4));
  check_int "P4 reversal" 2 (size (Builders.path 4));
  check_int "K3,3" 72 (size (complete_bipartite 3 3))

(* Every labeling of C5, K4, P5 and K3,3 over 2 and 3 symbols, as
   alphabet ranks, with the graph's group and its trie along the
   identity order. *)
let stabilizer_cases f =
  List.iter
    (fun g ->
      let n = Graph.order g in
      let auto = Auto.of_graph g in
      let order = Array.init n Fun.id in
      let trie = Auto.prefix auto ~order in
      List.iter
        (fun m ->
          let alphabet = List.init m string_of_int in
          let what = Printf.sprintf "%s, %d symbols" (graph_to_string g) m in
          let count = Lcp_local.Labeling.count ~alphabet g in
          f ~what ~auto ~trie ~count (fun k ->
              Lcp_local.Labeling.iter_backtracking_ranked ~alphabet ~order g
                ~prune:(fun _ _ _ -> false)
                (fun _ rk -> k rk)))
        [ 2; 3 ])
    [
      Builders.cycle 5;
      Builders.complete 4;
      Builders.path 5;
      complete_bipartite 3 3;
    ]

(* the stabilizer walk counts exactly the automorphisms that fix each
   complete labeling, checked against a scan of the whole group *)
let test_stabilizer_brute () =
  stabilizer_cases (fun ~what ~auto ~trie ~count:_ each ->
      let perms = Auto.perms auto in
      each (fun rk ->
          let fixes p =
            let ok = ref true in
            Array.iteri (fun v r -> if rk.(p.(v)) <> r then ok := false) rk;
            !ok
          in
          let brute =
            Array.fold_left (fun acc p -> if fixes p then acc + 1 else acc) 0 perms
          in
          let stab = Auto.stabilizer trie rk in
          if stab <> brute then
            Alcotest.failf "%s, ranks [%s]: stabilizer %d, group scan %d" what
              (String.concat ";" (Array.to_list (Array.map string_of_int rk)))
              stab brute))

(* A complete labeling through the walk state, steps 0..n-1 in turn,
   stopping at the first cut, as a search reaches a leaf. A cut at some
   step is the from-root walk's answer at the last step: the labeling
   is not the minimum of its orbit. Step 0 starts the walk afresh, so
   one walk serves every labeling. *)
let walk_cuts w ~n rk =
  let rec go i = i < n && (Auto.step w rk i || go (i + 1)) in
  go 0

(* the orbit minima (the labelings no step of the walk cuts), each
   weighted by its orbit size |Aut| / |Stab|, cover the labeling space
   exactly once: the weights strong soundness counts with *)
let test_orbit_weights_cover () =
  stabilizer_cases (fun ~what ~auto ~trie ~count each ->
      let n = Auto.order auto in
      let w = Auto.walk trie in
      let covered = ref 0 in
      each (fun rk ->
          if not (walk_cuts w ~n rk) then
            covered := !covered + (Auto.size auto / Auto.stabilizer trie rk));
      check_int (Printf.sprintf "orbit weights cover the space on %s" what)
        count !covered)

(* prefix programs (the oracle scan in Lcp_oracle) decide minimality
   exactly once the labeling is complete: walking every program at
   i = n-1 cuts L iff some automorphism sends L to a lexicographically
   smaller labeling, i.e. iff L is not the minimum of its orbit; so
   does the production trie's walk, cutting at some step of 0..n-1.
   (On partial labelings the walk is merely sound — it breaks off at
   the first undecided step — and the differentials below hold the
   walk to the programs there; exactness at the leaves pins the
   program construction itself.) *)
let test_prefix_programs_exact () =
  let alphabet = [ "a"; "b" ] in
  List.iter
    (fun g ->
      let n = Graph.order g in
      let auto = Auto.of_graph g in
      let perms = Auto.perms auto in
      let order = Array.init n Fun.id in
      let progs = Lcp_oracle.Prefix_programs.make auto ~order in
      let w = Auto.walk (Auto.prefix auto ~order) in
      (* sorted by activation step, as documented *)
      let act prog =
        let s, e = prog.(0) in
        max s e
      in
      Array.iteri
        (fun i prog ->
          if i > 0 then
            check_bool "programs sorted by activation" true
              (act progs.(i - 1) <= act prog))
        progs;
      let rank s = if s = "a" then 0 else 1 in
      Lcp_local.Labeling.iter_all ~alphabet g (fun lab ->
          let rk = Array.map rank lab in
          let minimal =
            Array.for_all
              (fun p ->
                compare rk (Array.init n (fun v -> rk.(p.(v)))) <= 0)
              perms
          in
          let cut = Lcp_oracle.Prefix_programs.cuts progs ~order rk (n - 1) in
          check_bool
            (Printf.sprintf "program cut = non-minimality on %s"
               (graph_to_string g))
            (not minimal) cut;
          check_bool
            (Printf.sprintf "trie cut = non-minimality on %s"
               (graph_to_string g))
            (not minimal) (walk_cuts w ~n rk)))
    [ Builders.cycle 4; Builders.cycle 5; Builders.complete 4; Builders.path 5 ]

(* The trie's walk must agree with the per-program scan on every partial
   labeling, not just complete ones: the search asks at every step, and
   any disagreement moves labelings_checked. Every prefix over a
   3-symbol rank alphabet is visited depth-first, in the identity
   order, its reverse and a seeded shuffle. The walk state follows the
   visit while no step has cut; below a cut it is not asked (its
   protocol), and the prefix counts as cut, which the program scan
   must confirm (a cut prefix's extensions are all cut). Rank entries
   of unassigned nodes keep whatever an earlier branch left there, as
   in the search, so reading past step [i] shows up as a mismatch. *)
let orders g =
  let n = Graph.order g in
  let shuffled = Array.init n Fun.id in
  let rng = Random.State.make [| n; Graph.size g |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  [
    ("identity", Array.init n Fun.id);
    ("reversed", Array.init n (fun i -> n - 1 - i));
    ("shuffled", shuffled);
  ]

let check_trie_matches_programs g =
  let n = Graph.order g in
  let auto = Auto.of_graph g in
  List.iter
    (fun (what, order) ->
      let w = Auto.walk (Auto.prefix auto ~order) in
      let progs = Lcp_oracle.Prefix_programs.make auto ~order in
      let rk = Array.init n (fun v -> 2 - (v mod 3)) in
      (* [cut]: some earlier step of this prefix cut *)
      let rec go i cut =
        if i < n then
          for r = 0 to 2 do
            rk.(order.(i)) <- r;
            let expect = Lcp_oracle.Prefix_programs.cuts progs ~order rk i in
            let got = cut || Auto.step w rk i in
            if got <> expect then
              Alcotest.failf "%s, %s order, step %d, ranks [%s]: programs %b"
                (graph_to_string g) what i
                (String.concat ";" (Array.to_list (Array.map string_of_int rk)))
                expect;
            go (i + 1) got
          done
      in
      go 0 false)
    (orders g)

(* The walk state under the search's own protocol, as Prover drives
   it: every symbol at each step, descend only where the step did not
   cut, backtrack. The same walk runs the search twice, the second time
   from a fresh step 0 after the first ended deep in the tree. In the
   first run a seeded coin also rejects one in four uncut prefixes, as
   a failed acceptance check does, so the search backtracks past steps
   the walk completed. Every step must answer as the program scan. *)
let check_walk_protocol g =
  let n = Graph.order g in
  let auto = Auto.of_graph g in
  List.iter
    (fun (what, order) ->
      let w = Auto.walk (Auto.prefix auto ~order) in
      let progs = Lcp_oracle.Prefix_programs.make auto ~order in
      let rng = Random.State.make [| n; Graph.size g; 7 |] in
      let rk = Array.init n (fun v -> 2 - (v mod 3)) in
      let search ~reject =
        let rec go i =
          if i < n then
            for r = 0 to 2 do
              rk.(order.(i)) <- r;
              let expect = Lcp_oracle.Prefix_programs.cuts progs ~order rk i in
              let got = Auto.step w rk i in
              if got <> expect then
                Alcotest.failf "%s, %s order, step %d, ranks [%s]: programs %b"
                  (graph_to_string g) what i
                  (String.concat ";"
                     (Array.to_list (Array.map string_of_int rk)))
                  expect;
              if not (got || (reject && Random.State.int rng 4 = 0)) then
                go (i + 1)
            done
        in
        go 0
      in
      search ~reject:true;
      search ~reject:false)
    (orders g)

let trie_corpus () =
  List.concat_map
    (fun n -> Lcp_engine.Sweep.iso_classes n)
    [ 1; 2; 3; 4; 5; 6 ]
  @ [
      Builders.complete 7;
      Builders.cycle 8;
      complete_bipartite 3 3;
      Builders.petersen ();
    ]

let test_trie_small () = List.iter check_trie_matches_programs (trie_corpus ())

let test_trie_n7 () =
  if heavy_enabled then
    List.iter check_trie_matches_programs (Lcp_engine.Sweep.iso_classes 7)

let test_walk_protocol_small () = List.iter check_walk_protocol (trie_corpus ())

let test_walk_protocol_n7 () =
  if heavy_enabled then
    List.iter check_walk_protocol (Lcp_engine.Sweep.iso_classes 7)

(* A step outside the protocol raises instead of answering from a
   frontier that does not belong to the prefix: a step whose previous
   step was never taken, or cut. On K4 along the identity order, ranks
   [1; 0] at steps 0, 1 are cut at step 1 by the transposition of
   nodes 0 and 1, and ranks [1; 1; 1] are cut at no step. *)
let test_walk_out_of_protocol () =
  let auto = Auto.of_graph (Builders.complete 4) in
  let w = Auto.walk (Auto.prefix auto ~order:[| 0; 1; 2; 3 |]) in
  let rk = [| 1; 0; 0; 0 |] in
  let raises what i =
    match Auto.step w rk i with
    | exception Invalid_argument _ -> ()
    | cut ->
        Alcotest.failf "%s: step %d answered %b instead of raising" what i cut
  in
  raises "fresh walk" 1;
  check_bool "step 0 does not cut" false (Auto.step w rk 0);
  raises "step 1 not taken" 2;
  check_bool "step 1 cuts" true (Auto.step w rk 1);
  raises "step 1 cut" 2;
  raises "step 1 cut, still" 3;
  rk.(1) <- 1;
  check_bool "step 1 again, another symbol" false (Auto.step w rk 1);
  raises "step 2 skipped" 3;
  rk.(2) <- 1;
  check_bool "step 2 after an uncut step 1" false (Auto.step w rk 2);
  rk.(1) <- 0;
  check_bool "back to step 1, a cutting symbol" true (Auto.step w rk 1);
  raises "step 1 cut below a deeper path" 2;
  check_bool "back to step 0" false (Auto.step w rk 0);
  raises "step 1 not taken since step 0" 2

(* The refined harvest (Canon.witnesses over the 1-WL cells) against
   the one-cell group: every relabeling achieving the one-cell minimum
   from the list-based oracle, composed with one witness's inverse, is
   Aut(G) over all n! relabelings. The two must agree as sets, each
   element once. *)
let one_cell_group ~n adj =
  match snd (Canon_ref.min_witnesses ~n adj) with
  | [] -> Alcotest.fail "one-cell oracle returned no witness"
  | q :: _ as wits ->
      let qinv = Array.make n 0 in
      Array.iteri (fun l v -> qinv.(v) <- l) q;
      List.map (fun p -> Array.init n (fun v -> p.(qinv.(v)))) wits

let check_refined_group what ~n adj =
  let auto = Auto.of_adj ~n adj in
  let refined = Array.to_list (Auto.perms auto) in
  let expect = sorted_perms (one_cell_group ~n adj) in
  let got = sorted_perms refined in
  check_int (Printf.sprintf "|Aut| on %s" what) (List.length expect)
    (Auto.size auto);
  if got <> expect then
    Alcotest.failf "refined group differs from the one-cell group on %s" what

let check_refined_classes n =
  List.iter
    (fun mask ->
      check_refined_group
        (Printf.sprintf "n=%d class %d" n mask)
        ~n (Lcp_engine.Chunk.adj_of_mask n mask))
    (fst (Orderly_ref.generate ~connected:false n))

let test_refined_group_small () =
  for n = 0 to 7 do
    check_refined_classes n
  done;
  List.iter
    (fun (what, g) ->
      check_refined_group what ~n:(Graph.order g) (Lcp_engine.Chunk.adj_of_graph g))
    (List.map (fun n -> (Printf.sprintf "K%d" n, Builders.complete n)) [ 2; 5; 8 ]
    @ List.map (fun n -> (Printf.sprintf "C%d" n, Builders.cycle n)) [ 3; 6; 9; 11 ]
    @ [
        ("petersen", Builders.petersen ());
        ("hypercube:3", Builders.hypercube 3);
        ("K3,3", complete_bipartite 3 3);
        ("K2,5", complete_bipartite 2 5);
        ("K4,5", complete_bipartite 4 5);
      ])

let test_refined_group_n8 () = if heavy_enabled then check_refined_classes 8

let suite =
  [
    case "group = brute force, all classes n <= 5" test_group_small;
    case "generators close to the group" test_generators_generate;
    case "stabilizer walk = group scan" test_stabilizer_brute;
    case "known group sizes" test_known_sizes;
    case "orbit minima weighted by orbit size cover the space"
      test_orbit_weights_cover;
    case "prefix programs: exact minimality at complete labelings"
      test_prefix_programs_exact;
    slow_case "group = brute force, n = 6 (LCP_HEAVY)" test_group_n6;
    case "prefix trie = program scan on every prefix, n <= 6 and named graphs"
      test_trie_small;
    slow_case "prefix trie = program scan, n = 7 (LCP_HEAVY)" test_trie_n7;
    case "refined group = one-cell group, n <= 7 and named graphs"
      test_refined_group_small;
    slow_case "refined group = one-cell group, n = 8 (LCP_HEAVY)"
      test_refined_group_n8;
    case
      "walk state = program scan under the search protocol, n <= 6 and \
       named graphs"
      test_walk_protocol_small;
    slow_case
      "walk state = program scan under the search protocol, n = 7 \
       (LCP_HEAVY)"
      test_walk_protocol_n7;
    case "walk state: an out-of-protocol step raises" test_walk_out_of_protocol;
  ]
