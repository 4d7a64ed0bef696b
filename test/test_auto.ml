(* Automorphism harvesting (Lcp_engine.Auto): the group extracted from
   Canon's branch-and-bound, validated against brute-force enumeration
   of all n! vertex permutations on every class of every order up to 6
   (connected and disconnected alike — Aut does not care). *)

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

let corpus max_n =
  List.concat_map
    (fun n -> Lcp_engine.Sweep.iso_classes ~connected:false n)
    (List.init max_n (fun i -> i + 1))

let check_group_equals_brute max_n () =
  List.iter
    (fun g ->
      let brute = brute_aut g in
      let auto = Auto.of_graph g in
      check_int
        (Printf.sprintf "|Aut| on %s" (Graph.to_string g))
        (List.length brute) (Auto.size auto);
      check_bool
        (Printf.sprintf "group elements on %s" (Graph.to_string g))
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
           (Graph.to_string g))
        true
        (sorted_perms (closure (Graph.order g) gens)
        = sorted_perms (Array.to_list (Auto.perms auto))))
    (corpus 5)

let test_orbits_match_brute () =
  List.iter
    (fun g ->
      let n = Graph.order g in
      let brute = brute_aut g in
      (* brute orbit id: minimum image of v across the group *)
      let expect =
        Array.init n (fun v ->
            List.fold_left (fun acc p -> min acc p.(v)) v brute)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "orbits on %s" (Graph.to_string g))
        expect
        (Auto.orbits (Auto.of_graph g)))
    (corpus 5)

(* known groups: |Aut C5| = 10 (dihedral), |Aut K4| = 24, |Aut P4| = 2,
   |Aut K3,3| = 72, rigid example from the n=6 corpus *)
let test_known_sizes () =
  let size g = Auto.size (Auto.of_graph g) in
  check_int "C5 dihedral" 10 (size (Builders.cycle 5));
  check_int "K4 symmetric" 24 (size (Builders.complete 4));
  check_int "P4 reversal" 2 (size (Builders.path 4));
  check_int "K3,3" 72 (size (Builders.complete_bipartite 3 3))

(* the lex_constraints quotient keeps exactly one representative per
   orbit of labelings when combined with the exact-minimality filter —
   sanity-checked here by counting: chain constraints alone leave a
   superset of the minima, never cut a minimum, and the minima count
   equals the number of labeling orbits (Burnside check) *)
let test_constraints_sound () =
  let alphabet = [ "a"; "b" ] in
  List.iter
    (fun g ->
      let n = Graph.order g in
      let auto = Auto.of_graph g in
      let perms = Auto.perms auto in
      let cs = Auto.lex_constraints auto ~order:(Array.init n Fun.id) in
      let rank s = if s = "a" then 0 else 1 in
      (* enumerate all labelings; classify minimality by brute force *)
      let minima = ref 0 and survivors = ref 0 and orbits = ref 0 in
      let seen = Hashtbl.create 64 in
      Lcp_local.Labeling.iter_all ~alphabet g (fun lab ->
          let key = Array.to_list lab in
          let lab = Array.copy lab in
          (* brute lex-minimality over the group *)
          let minimal =
            Array.for_all
              (fun p ->
                let img = Array.init n (fun v -> lab.(p.(v))) in
                compare (Array.map rank lab) (Array.map rank img) <= 0)
              perms
          in
          if minimal then incr minima;
          if not (Hashtbl.mem seen key) then begin
            incr orbits;
            Array.iter
              (fun p ->
                Hashtbl.replace seen
                  (Array.to_list (Array.init n (fun v -> lab.(p.(v)))))
                  ())
              perms
          end;
          (* does the labeling satisfy every chain constraint? *)
          let ok = ref true in
          Array.iteri
            (fun s es ->
              List.iter
                (fun e -> if rank lab.(s) < rank lab.(e) then ok := false)
                es)
            cs;
          if !ok then incr survivors;
          (* soundness: a constraint violation implies non-minimality *)
          if not !ok then
            check_bool "constraints only cut non-minima" false minimal);
      check_bool "constraints keep every minimum" true (!survivors >= !minima);
      (* distinct minima = orbit count: minima are canonical forms *)
      check_int
        (Printf.sprintf "one minimum per labeling orbit on %s"
           (Graph.to_string g))
        !orbits !minima)
    [ Builders.cycle 4; Builders.cycle 5; Builders.complete 4; Builders.path 5 ]

(* prefix programs (the oracle scan in Lcp_oracle) decide minimality
   exactly once the labeling is complete: walking every program at
   i = n-1 cuts L iff some automorphism sends L to a lexicographically
   smaller labeling, i.e. iff L is not the minimum of its orbit; so
   does the production trie. (On partial labelings the walk is merely
   sound — it breaks off at the first undecided step — and the trie
   differential below holds the trie to the programs there;
   exactness at the leaves pins the program construction itself.) *)
let test_prefix_programs_exact () =
  let alphabet = [ "a"; "b" ] in
  List.iter
    (fun g ->
      let n = Graph.order g in
      let auto = Auto.of_graph g in
      let perms = Auto.perms auto in
      let order = Array.init n Fun.id in
      let progs = Lcp_oracle.Prefix_programs.make auto ~order in
      let trie = Auto.prefix auto ~order in
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
               (Graph.to_string g))
            (not minimal) cut;
          check_bool
            (Printf.sprintf "trie cut = non-minimality on %s"
               (Graph.to_string g))
            (not minimal)
            (Auto.cuts trie rk (n - 1))))
    [ Builders.cycle 4; Builders.cycle 5; Builders.complete 4; Builders.path 5 ]

(* The trie must agree with the per-program scan on every partial
   labeling, not just complete ones: the search asks at every step, and
   any disagreement moves labelings_checked. Every prefix over a
   3-symbol rank alphabet is visited depth-first, in the identity
   order, the prover's ball-completion order and a seeded shuffle. Rank
   entries of unassigned nodes keep whatever an earlier branch left
   there, as in the search, so reading past step [i] shows up as a
   mismatch. *)
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
    ("ball-completion", Lcp.Prover.ball_completion_order g ~r:1);
    ("shuffled", shuffled);
  ]

let check_trie_matches_programs g =
  let n = Graph.order g in
  let auto = Auto.of_graph g in
  List.iter
    (fun (what, order) ->
      let trie = Auto.prefix auto ~order in
      let progs = Lcp_oracle.Prefix_programs.make auto ~order in
      let rk = Array.init n (fun v -> 2 - (v mod 3)) in
      let rec go i =
        if i < n then
          for r = 0 to 2 do
            rk.(order.(i)) <- r;
            let expect = Lcp_oracle.Prefix_programs.cuts progs ~order rk i in
            if Auto.cuts trie rk i <> expect then
              Alcotest.failf "%s, %s order, step %d, ranks [%s]: programs %b"
                (Graph.to_string g) what i
                (String.concat ";" (Array.to_list (Array.map string_of_int rk)))
                expect;
            go (i + 1)
          done
      in
      go 0)
    (orders g)

let test_trie_small () =
  List.iter check_trie_matches_programs
    (List.concat_map
       (fun n -> Lcp_engine.Sweep.iso_classes ~connected:true n)
       [ 1; 2; 3; 4; 5; 6 ]
    @ [
        Builders.complete 7;
        Builders.cycle 8;
        Builders.complete_bipartite 3 3;
        Builders.petersen ();
      ])

let test_trie_n7 () =
  if heavy_enabled then
    List.iter check_trie_matches_programs
      (Lcp_engine.Sweep.iso_classes ~connected:true 7)

let suite =
  [
    case "group = brute force, all classes n <= 5" test_group_small;
    case "generators close to the group" test_generators_generate;
    case "orbits = brute force" test_orbits_match_brute;
    case "known group sizes" test_known_sizes;
    case "lex constraints: sound and exact up to minimality"
      test_constraints_sound;
    case "prefix programs: exact minimality at complete labelings"
      test_prefix_programs_exact;
    slow_case "group = brute force, n = 6 (LCP_HEAVY)" test_group_n6;
    case "prefix trie = program scan on every prefix, n <= 6 and named graphs"
      test_trie_small;
    slow_case "prefix trie = program scan, n = 7 (LCP_HEAVY)" test_trie_n7;
  ]
