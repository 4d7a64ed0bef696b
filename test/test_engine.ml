(* The Lcp_engine battery: bit kernels, canonical forms, the domain
   pool, orderly generation cross-validated against the mask scan, and
   sweep determinism across jobs counts.

   The expensive n = 7 / n = 8 regressions (853 / 11,117 connected
   classes) only run when LCP_HEAVY is set: `LCP_HEAVY=1 dune runtest`. *)

open Lcp_graph
open Lcp_engine
open Helpers

(* A fresh throwaway cfg at the given width — jobs is now carried by
   [Run_cfg.t] rather than a per-call optional. *)
let cfg jobs = Lcp_obs.Run_cfg.make ~jobs ()

let heavy_enabled = Sys.getenv_opt "LCP_HEAVY" <> None

(* ------------------------------------------------------------------ *)
(* Bits                                                                *)

let test_bits_popcount () =
  let naive x =
    let c = ref 0 in
    for i = 0 to 62 do
      if x land (1 lsl i) <> 0 then incr c
    done;
    !c
  in
  check_int "popcount 0" 0 (Bits.popcount 0);
  check_int "popcount max_int" 62 (Bits.popcount max_int);
  for x = 0 to 4096 do
    check_int "popcount vs naive (low)" (naive x) (Bits.popcount x);
    let hi = x * 0x40021 lxor (x lsl 40) in
    check_int "popcount vs naive (wide)" (naive hi) (Bits.popcount hi)
  done

let test_bits_ntz_fold () =
  for i = 0 to 62 do
    check_int "ntz of a single bit" i (Bits.ntz (1 lsl i))
  done;
  check_int "ntz picks the lowest bit" 3 (Bits.ntz 0b1011000);
  let bits m = List.rev (Bits.fold_bits (fun i acc -> i :: acc) m []) in
  check_bool "fold_bits lists set bits ascending" true
    (bits 0b1011001 = [ 0; 3; 4; 6 ]);
  check_bool "fold_bits on 0" true (bits 0 = []);
  check_int "fold_bits count = popcount" (Bits.popcount 0xdeadbeef)
    (Bits.fold_bits (fun _ acc -> acc + 1) 0xdeadbeef 0)

(* ------------------------------------------------------------------ *)
(* Chunk                                                               *)

let test_chunk_plan () =
  check_int "space 4" 64 (Chunk.space 4);
  let chunks = Chunk.plan ~chunk_bits:4 5 in
  check_int "5-node space in 16-mask chunks" 64 (List.length chunks);
  let covered = ref 0 in
  List.iter (fun c -> Chunk.iter c (fun _ -> incr covered)) chunks;
  check_int "chunks cover the space exactly" (Chunk.space 5) !covered;
  check_int "one chunk for tiny spaces" 1 (List.length (Chunk.plan 1))

let test_mask_roundtrip () =
  (* every mask on 4 nodes decodes to the graph that re-encodes to it *)
  for mask = 0 to Chunk.space 4 - 1 do
    let g = Chunk.graph_of_mask 4 mask in
    check_int "mask roundtrip" mask (Chunk.mask_of_graph g);
    let adj = Chunk.adj_of_mask 4 mask in
    check_bool "adj connectivity agrees with Graph.is_connected"
      (Graph.is_connected g)
      (Chunk.is_connected_adj adj)
  done

(* ------------------------------------------------------------------ *)
(* Canon                                                               *)

let test_canon_iso_invariant () =
  (* the canonical key is constant on each isomorphism class: relabel
     every connected 5-node representative by a few permutations *)
  let perms =
    [ [| 4; 3; 2; 1; 0 |]; [| 1; 2; 3; 4; 0 |]; [| 2; 0; 4; 1; 3 |] ]
  in
  List.iter
    (fun g ->
      let k = Canon.key g in
      List.iter
        (fun p ->
          check_int "key invariant under relabeling" k
            (Canon.key (Graph.relabel g p)))
        perms)
    (Enumerate.connected_up_to_iso 5)

let test_canon_separates () =
  (* distinct classes get distinct keys: counts match the brute-force
     pairwise-isomorphism dedup *)
  let keys = Hashtbl.create 64 in
  Enumerate.iter_graphs 5 (fun g ->
      if Graph.is_connected g then Hashtbl.replace keys (Canon.key g) ());
  check_int "canonical keys count the iso classes" 21 (Hashtbl.length keys)

let test_canonical_graph () =
  let c5 = Builders.cycle 5 in
  let shuffled = Graph.relabel c5 [| 3; 0; 4; 1; 2 |] in
  check_graph "canonical representative is stable"
    (Canon.canonical_graph c5)
    (Canon.canonical_graph shuffled);
  check_bool "representative stays isomorphic" true
    (Graph.isomorphic c5 (Canon.canonical_graph c5))

let test_min_mask_exact () =
  (* min_mask is the least labeled mask of the class: verify against a
     literal scan of the whole 4-node space *)
  let least = Hashtbl.create 16 in
  for mask = 0 to Chunk.space 4 - 1 do
    let key = Canon.key_adj ~n:4 (Chunk.adj_of_mask 4 mask) in
    if not (Hashtbl.mem least key) then Hashtbl.replace least key mask
  done;
  for mask = 0 to Chunk.space 4 - 1 do
    let adj = Chunk.adj_of_mask 4 mask in
    let key = Canon.key_adj ~n:4 adj in
    check_int "min_mask = least member of the class"
      (Hashtbl.find least key)
      (Canon.min_mask ~n:4 adj)
  done;
  (* an [init] seed from a class member must not change the result *)
  let p3 = Chunk.adj_of_mask 3 (Canon.canonical_mask ~n:3 (Chunk.adj_of_mask 3 0b110)) in
  check_int "init seed is only a bound"
    (Canon.min_mask ~n:3 (Chunk.adj_of_mask 3 0b110))
    (Canon.min_mask ~init:(Chunk.mask_of_graph (Chunk.graph_of_mask 3 0b110)) ~n:3 p3)

(* ------------------------------------------------------------------ *)
(* Canon kernel vs the list-based oracle (Canon_ref)                   *)

let relabel_adj n adj p =
  let out = Array.make n 0 in
  for v = 0 to n - 1 do
    out.(p.(v)) <- Bits.fold_bits (fun u acc -> acc lor (1 lsl p.(u))) adj.(v) 0
  done;
  out

let shuffle st n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* every class on [n] nodes, as listed and under [relabelings] seeded
   random relabelings: the kernel's canonical_mask, min_mask (with and
   without an [init] seed) and min_witnesses (same list, same order)
   equal the oracle's *)
let check_canon_against_ref ~relabelings n =
  let st = Random.State.make [| 13; n |] in
  let masks, _ = Orderly.generate ~connected:false n in
  List.iter
    (fun mask ->
      let listed = Chunk.adj_of_mask n mask in
      for r = 0 to relabelings do
        let adj = if r = 0 then listed else relabel_adj n listed (shuffle st n) in
        let what = Printf.sprintf "n=%d class %d relabeling %d" n mask r in
        let cm = Canon_ref.canonical_mask ~n adj in
        check_int ("canonical_mask, " ^ what) cm (Canon.canonical_mask ~n adj);
        check_int ("min_mask, " ^ what) (Canon_ref.min_mask ~n adj)
          (Canon.min_mask ~n adj);
        check_int ("min_mask ~init, " ^ what)
          (Canon_ref.min_mask ~init:cm ~n adj)
          (Canon.min_mask ~init:cm ~n adj);
        let ref_best, ref_wits = Canon_ref.min_witnesses ~n adj in
        let best, wits = Canon.min_witnesses ~n adj in
        check_int ("min_witnesses mask, " ^ what) ref_best best;
        if wits <> ref_wits then
          Alcotest.failf "min_witnesses list differs from the oracle, %s" what
      done)
    masks

let test_canon_matches_ref () =
  for n = 0 to 7 do
    check_canon_against_ref ~relabelings:3 n
  done

let test_canon_matches_ref_n8 () =
  if heavy_enabled then check_canon_against_ref ~relabelings:1 8

let test_canon_scratch_per_domain () =
  (* the kernel's scratch is per domain: concurrent calls on pool
     domains agree with the sequential ones *)
  let masks = Array.of_list (fst (Orderly.generate ~connected:false 6)) in
  let run jobs =
    Pool.run ~jobs (Array.length masks) (fun i ->
        let adj = Chunk.adj_of_mask 6 masks.(i) in
        (Canon.canonical_mask ~n:6 adj, Canon.min_witnesses ~n:6 adj))
  in
  check_bool "canon on 4 domains = sequential" true (run 1 = run 4)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_run_matches_sequential () =
  let f i = (i * i) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "run jobs=%d" jobs)
        (Array.init 100 f)
        (Pool.run ~jobs 100 f))
    [ 1; 2; 4 ];
  check_int "empty run" 0 (Array.length (Pool.run ~jobs:4 0 f))

let test_pool_search_minimal () =
  (* matches at 17, 23, 61: every jobs count must report 17 *)
  let f i = if i = 17 || i = 23 || i = 61 then Some (i * 10) else None in
  List.iter
    (fun jobs ->
      match Pool.search ~jobs 100 f with
      | Some (17, 170) -> ()
      | Some (i, _) ->
          Alcotest.failf "search jobs=%d returned index %d, wanted 17" jobs i
      | None -> Alcotest.failf "search jobs=%d found nothing" jobs)
    [ 1; 2; 4 ];
  check_bool "no match" true (Pool.search ~jobs:4 50 (fun _ -> None) = None)

let test_pool_exception_propagates () =
  let boom i = if i = 3 then failwith "boom" else i in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "exception re-raised at jobs=%d" jobs)
        true
        (try
           ignore (Pool.run ~jobs 8 boom);
           false
         with Failure _ -> true))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Orderly vs mask scan: the cross-validation core                     *)

(* OEIS A001349 (connected) and A000088 (all) — the pins the
   reproduction's exhaustive frontier hangs on. *)
let connected_counts = [ (1, 1); (2, 1); (3, 2); (4, 6); (5, 21); (6, 112) ]
let all_counts = [ (1, 1); (2, 2); (3, 4); (4, 11); (5, 34); (6, 156) ]

let classes_with strategy ~connected n =
  Sweep.clear_cache ();
  Sweep.iso_classes ~cfg:(cfg 2) ~strategy ~connected n

let test_strategies_agree () =
  List.iter
    (fun connected ->
      for n = 1 to 6 do
        let o = classes_with Sweep.Orderly ~connected n in
        let m = classes_with Sweep.Mask_scan ~connected n in
        check_int
          (Printf.sprintf "class count n=%d connected=%b" n connected)
          (List.length m) (List.length o);
        List.iter2
          (fun a b -> check_graph "identical representative" a b)
          o m
      done)
    [ true; false ];
  Sweep.clear_cache ()

let test_orderly_oeis_counts () =
  List.iter
    (fun (n, expected) ->
      check_int
        (Printf.sprintf "A001349 n=%d" n)
        expected
        (List.length (classes_with Sweep.Orderly ~connected:true n)))
    connected_counts;
  List.iter
    (fun (n, expected) ->
      check_int
        (Printf.sprintf "A000088 n=%d" n)
        expected
        (List.length (classes_with Sweep.Orderly ~connected:false n)))
    all_counts;
  Sweep.clear_cache ()

(* cumulative over the levels; the canonical-augmentation filters may
   skip canonicalizations but never change what is counted *)
let test_orderly_tallies () =
  List.iter
    (fun (n, candidates, dedup) ->
      let _, t = Orderly.generate ~connected:true n in
      check_int (Printf.sprintf "candidates n=%d" n) candidates
        t.Orderly.candidates;
      check_int (Printf.sprintf "dedup hits n=%d" n) dedup t.Orderly.dedup_hits)
    [
      (1, 0, 0);
      (2, 2, 0);
      (3, 10, 2);
      (4, 42, 14);
      (5, 218, 100);
      (6, 1306, 644);
      (7, 11_290, 5_532);
    ]

let test_orderly_deterministic_in_jobs () =
  let gen jobs =
    let masks, t = Orderly.generate ~jobs ~connected:true 6 in
    (masks, t.Orderly.candidates, t.Orderly.dedup_hits, t.Orderly.classes)
  in
  let base = gen 1 in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "orderly output bit-identical at jobs=%d" jobs)
        true
        (gen jobs = base))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Sweep: cached classes                                               *)

let test_iso_classes_counts () =
  (* 1, 1, 2, 6, 21, 112 connected classes on n = 1..6 *)
  List.iter
    (fun (n, expected) ->
      check_int
        (Printf.sprintf "connected classes n=%d" n)
        expected
        (List.length (Sweep.iso_classes ~cfg:(cfg 2) n)))
    connected_counts;
  (* including disconnected graphs: 11 classes on 4 nodes *)
  check_int "all classes n=4" 11
    (List.length (Sweep.iso_classes ~cfg:(cfg 2) ~connected:false 4))

let test_iso_classes_deterministic () =
  Sweep.clear_cache ();
  let seq = Sweep.iso_classes ~cfg:(cfg 1) 5 in
  Sweep.clear_cache ();
  let par = Sweep.iso_classes ~cfg:(cfg 4) 5 in
  check_int "same class count" (List.length seq) (List.length par);
  List.iter2 (fun a b -> check_graph "identical representative" a b) seq par

let test_iso_classes_agree_with_enumerate () =
  (* same classes as the brute-force path — representatives and order
     included, which is the [Enumerate.classes] delegation contract *)
  let engine = Sweep.iso_classes ~cfg:(cfg 2) 4 in
  let brute = Enumerate.connected_up_to_iso 4 in
  check_int "class count vs Enumerate" (List.length brute) (List.length engine);
  List.iter2 (fun a b -> check_graph "identical representative" a b) brute engine

let test_class_cache_hits () =
  Sweep.clear_cache ();
  ignore (Sweep.iso_classes ~cfg:(cfg 1) 5);
  let h0, m0 = Sweep.cache_stats () in
  check_int "first sweep misses" 1 m0;
  check_int "first sweep hits" 0 h0;
  ignore (Sweep.iso_classes ~cfg:(cfg 4) 5);
  ignore (Sweep.iso_classes ~cfg:(cfg 1) 5);
  let h1, m1 = Sweep.cache_stats () in
  check_int "repeat sweeps hit" 2 (h1 - h0);
  check_int "no recompute" m0 m1;
  (* the two strategies are distinct cache entries *)
  ignore (Sweep.iso_classes ~cfg:(cfg 1) ~strategy:Sweep.Mask_scan 5);
  let _, m2 = Sweep.cache_stats () in
  check_int "strategy is part of the cache key" (m1 + 1) m2;
  Sweep.clear_cache ()

(* ------------------------------------------------------------------ *)
(* Sweep: verdict determinism                                          *)

(* A seeded soundness-violating "decoder": flags any graph containing a
   triangle through node 0 .. i.e. an isomorphism-invariant predicate
   with both outcomes present on 5 nodes. *)
let has_triangle g =
  List.exists
    (fun (u, v) ->
      List.exists
        (fun w -> Graph.mem_edge g u w && Graph.mem_edge g v w)
        (Graph.nodes g))
    (Graph.edges g)

let violation_check g = if has_triangle g then Some (Graph.size g) else None

let test_sweep_deterministic_across_jobs () =
  let run jobs mode strategy =
    Sweep.run ~cfg:(cfg jobs) ~strategy ~mode ~n:5 ~check:violation_check ()
  in
  let base = run 1 Sweep.Exhaustive Sweep.Orderly in
  check_bool "violations exist on 5 nodes" true
    (base.Sweep.counterexample <> None);
  List.iter
    (fun jobs ->
      List.iter
        (fun mode ->
          List.iter
            (fun strategy ->
              let s = run jobs mode strategy in
              check_int "same classes" base.Sweep.counters.Sweep.classes
                s.Sweep.counters.Sweep.classes;
              match (base.Sweep.counterexample, s.Sweep.counterexample) with
              | Some (g, c), Some (g', c') ->
                  check_graph "identical counterexample graph" g g';
                  check_int "identical counterexample payload" c c'
              | _ -> Alcotest.fail "verdict flipped across jobs")
            [ Sweep.Orderly; Sweep.Mask_scan ])
        [ Sweep.Exhaustive; Sweep.Search_counterexample ])
    [ 1; 2; 4 ]

let test_sweep_clean_space () =
  (* no violation: every mode and jobs count agrees on the verdict and
     the exhaustive counters *)
  let s = Sweep.run ~cfg:(cfg 4) ~n:5 ~check:(fun _ -> None) () in
  check_bool "no counterexample" true (s.Sweep.counterexample = None);
  check_int "all classes accepted" s.Sweep.counters.Sweep.kept
    s.Sweep.counters.Sweep.passed;
  let t =
    Sweep.run ~cfg:(cfg 4) ~mode:Sweep.Search_counterexample ~n:5
      ~check:(fun _ -> None) ()
  in
  check_bool "search agrees" true (t.Sweep.counterexample = None)

let test_sweep_keep_filter () =
  (* keep = bipartite only: counterexamples (triangles) all filtered *)
  let s =
    Sweep.run ~cfg:(cfg 2) ~n:5 ~keep:Coloring.is_bipartite ~check:violation_check ()
  in
  check_bool "bipartite classes have no triangles" true
    (s.Sweep.counterexample = None);
  check_bool "filter dropped classes" true
    (s.Sweep.counters.Sweep.kept < s.Sweep.counters.Sweep.classes)

(* ------------------------------------------------------------------ *)
(* sharding and checkpoints                                            *)

let test_shard_partition () =
  (* record which classes each shard actually checks: the K slices must
     partition the unsharded stream exactly, and each class must land
     on the shard shard_of_key names *)
  let collect ?shard () =
    let seen = ref [] in
    ignore
      (Sweep.run ~cfg:(cfg 1) ?shard ~n:6
         ~check:(fun g ->
           seen := Chunk.wide_mask_of_graph g :: !seen;
           None)
         ());
    List.sort compare !seen
  in
  let full = collect () in
  let k = 3 in
  let parts = List.init k (fun i -> collect ~shard:(i, k) ()) in
  check_bool "shards union to the full stream" true
    (List.sort compare (List.concat parts) = full);
  check_int "shards are pairwise disjoint" (List.length full)
    (List.fold_left (fun a p -> a + List.length p) 0 parts);
  check_bool "no shard is empty at n=6 / K=3" true
    (List.for_all (fun p -> p <> []) parts);
  List.iteri
    (fun i p ->
      List.iter
        (fun key ->
          check_int "shard_of_key owns its classes" i
            (Sweep.shard_of_key ~shards:k key))
        p)
    parts;
  (* shard counters are jobs-invariant, like everything else *)
  List.init k Fun.id
  |> List.iter (fun i ->
         let s1 = Sweep.run ~cfg:(cfg 1) ~shard:(i, k) ~n:6 ~check:violation_check () in
         let s4 = Sweep.run ~cfg:(cfg 4) ~shard:(i, k) ~n:6 ~check:violation_check () in
         check_bool "shard counters jobs-invariant" true
           (s1.Sweep.counters = s4.Sweep.counters))

let test_shard_out_of_range () =
  List.iter
    (fun shard ->
      Alcotest.check_raises "shard validation" (Invalid_argument "Sweep.run: shard index out of range")
        (fun () ->
          ignore (Sweep.run ~shard ~n:4 ~check:(fun _ -> None) ())))
    [ (2, 2); (-1, 2); (0, 0) ]

(* One checkpointed sweep killed mid-stream (the check raises), then
   resumed to completion: the final checkpoint must be bit-identical
   to an uninterrupted run's, and the resumed run's metrics must cover
   the whole logical sweep (resumed credit + new work). *)
let test_checkpoint_kill_resume () =
  let tmp suffix = Filename.temp_file "lcp_ck" suffix in
  let ref_path = tmp "_ref.json" and path = tmp ".json" in
  let policy p resume = { Checkpoint.path = p; resume; tag = "ck-test" } in
  let run_ck p resume jobs check =
    let c = cfg jobs in
    let s =
      Sweep.run ~cfg:c ~checkpoint:(policy p resume) ~n:6
        ~check:(fun g ->
          Lcp_obs.Run_cfg.count c "labelings_checked";
          check g)
        ()
    in
    (s, Lcp_obs.Metrics.counter c.Lcp_obs.Run_cfg.metrics "labelings_checked")
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ ref_path; path ])
    (fun () ->
      (* uninterrupted reference *)
      let s_ref, m_ref = run_ck ref_path false 2 violation_check in
      check_bool "reference finds violations" true
        (s_ref.Sweep.counterexample <> None);
      (* kill: the check raises partway into the second chunk *)
      let calls = ref 0 in
      let exception Killed in
      (try
         ignore
           (run_ck path false 1 (fun g ->
                incr calls;
                if !calls > 40 then raise Killed;
                violation_check g))
       with Killed -> ());
      (match Checkpoint.load path with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          check_bool "killed checkpoint is incomplete" false
            c.Checkpoint.complete;
          check_bool "killed checkpoint made progress" true
            (c.Checkpoint.completed > 0));
      (* resume to completion *)
      let s_res, m_res = run_ck path true 2 violation_check in
      check_bool "summaries identical" true
        (s_ref.Sweep.counters = s_res.Sweep.counters
        && s_ref.Sweep.counterexample = s_res.Sweep.counterexample);
      check_int "metrics cover the logical sweep" m_ref m_res;
      (* the on-disk checkpoints are bit-identical *)
      match (Checkpoint.load ref_path, Checkpoint.load path) with
      | Ok a, Ok b -> check_bool "checkpoints bit-identical" true (a = b)
      | _ -> Alcotest.fail "final checkpoints unreadable")

let test_checkpoint_rejects_search_mode () =
  Alcotest.check_raises "checkpoint mode validation"
    (Invalid_argument "Sweep.run: checkpoints require Exhaustive mode")
    (fun () ->
      ignore
        (Sweep.run ~mode:Sweep.Search_counterexample
           ~checkpoint:{ Checkpoint.path = "/nonexistent"; resume = false; tag = "x" }
           ~n:4 ~check:(fun _ -> None) ()))

(* Rewrite the checkpoint at [path] into [out] with its members passed
   through [f], then load the result. *)
let load_rewritten ~path ~out f =
  let module Json = Lcp_obs.Json in
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok (Json.Obj members) ->
      Out_channel.with_open_text out (fun oc ->
          output_string oc (Json.to_string_pretty (Json.Obj (f members))));
      Checkpoint.load out
  | _ -> Alcotest.fail "checkpoint is not a JSON object"

let add_to key d members =
  List.map
    (fun (k, v) ->
      match v with
      | Lcp_obs.Json.Int i when k = key -> (k, Lcp_obs.Json.Int (i + d))
      | _ -> (k, v))
    members

let test_checkpoint_merge_validation () =
  (* merge is picky: wrong shard sets and incomplete shards refuse;
     load is picky too: a file whose digest no longer matches its
     counters, or that has no digest, does not load *)
  let path = Filename.temp_file "lcp_ck" "_m.json" in
  let out = Filename.temp_file "lcp_ck" "_t.json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; out ])
    (fun () ->
      ignore
        (Sweep.run
           ~checkpoint:{ Checkpoint.path; resume = false; tag = "m" }
           ~shard:(0, 2) ~n:5 ~check:(fun _ -> None) ());
      (match load_rewritten ~path ~out Fun.id with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("re-rendered checkpoint refused: " ^ msg));
      List.iter
        (fun (what, f) ->
          match load_rewritten ~path ~out f with
          | Ok _ -> Alcotest.fail (what ^ ": checkpoint loaded")
          | Error msg ->
              check_bool (what ^ ": error names the file") true
                (contains ~needle:out msg))
        [
          ("passed + 1000", add_to "passed" 1000);
          ("labelings_checked + 1", add_to "labelings_checked" 1);
          ("digest removed", List.remove_assoc "digest");
        ];
      match Checkpoint.load path with
      | Error msg -> Alcotest.fail msg
      | Ok c0 ->
          (match Checkpoint.merge [ c0 ] with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "merge accepted a missing shard");
          (match Checkpoint.merge [ c0; { c0 with Checkpoint.complete = false; shard = 1 } ] with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "merge accepted an incomplete shard");
          (match Checkpoint.merge [ c0; { c0 with Checkpoint.shard = 1 } ] with
          | Ok m ->
              check_int "merged kept sums" (2 * c0.Checkpoint.kept)
                m.Checkpoint.kept
          | Error msg -> Alcotest.fail msg))

(* ------------------------------------------------------------------ *)
(* heavy regressions: n = 7, n = 8                                     *)

let test_n7_classes () =
  if not heavy_enabled then ()
  else begin
    Sweep.clear_cache ();
    let s = Sweep.run ~n:7 ~check:(fun _ -> None) () in
    check_int "853 connected classes on 7 nodes (orderly)" 853
      s.Sweep.counters.Sweep.classes;
    let m =
      Sweep.run ~strategy:Sweep.Mask_scan ~n:7 ~check:(fun _ -> None) ()
    in
    check_int "853 connected classes on 7 nodes (mask scan)" 853
      m.Sweep.counters.Sweep.classes;
    check_int "2^21 candidates under the mask scan" (Chunk.space 7)
      m.Sweep.counters.Sweep.candidates;
    check_bool "orderly examined far fewer candidates" true
      (s.Sweep.counters.Sweep.candidates * 10 < m.Sweep.counters.Sweep.candidates);
    (* identical listings at the old frontier *)
    let o7 = Sweep.iso_classes 7 in
    let m7 = Sweep.iso_classes ~strategy:Sweep.Mask_scan 7 in
    List.iter2 (fun a b -> check_graph "identical n=7 representative" a b) o7 m7;
    Sweep.clear_cache ()
  end

(* the orderly tallies an [iso_classes] call reported into [c] *)
let check_enum_tallies c ~candidates ~dedup =
  let counter = Lcp_obs.Metrics.counter c.Lcp_obs.Run_cfg.metrics in
  check_int "orderly candidates" candidates (counter "candidates_generated");
  check_int "orderly dedup hits" dedup (counter "dedup_hits")

let test_n8_frontier () =
  (* the new frontier: out of reach for the mask scan (2^28 masks),
     directly generated by orderly augmentation *)
  if not heavy_enabled then ()
  else begin
    Sweep.clear_cache ();
    let c = cfg 0 in
    check_int "11117 connected classes on 8 nodes" 11117
      (List.length (Sweep.iso_classes ~cfg:c 8));
    check_enum_tallies c ~candidates:144_922 ~dedup:59_944;
    check_int "12346 classes on 8 nodes" 12346
      (List.length (Sweep.iso_classes ~cfg:(cfg 0) ~connected:false 8));
    Sweep.clear_cache ()
  end

let test_n9_frontier () =
  (* the orbit-era frontier: 261,080 connected classes on 9 nodes
     (OEIS A001349), far past the mask scan's 30-bit cap — only the
     orderly generator (and the wide class keys) get here *)
  if not heavy_enabled then ()
  else begin
    Sweep.clear_cache ();
    let c = cfg 0 in
    check_int "261080 connected classes on 9 nodes" 261_080
      (List.length (Sweep.iso_classes ~cfg:c 9));
    check_enum_tallies c ~candidates:3_305_498 ~dedup:1_012_362;
    Sweep.clear_cache ()
  end

let suite =
  [
    case "bits popcount" test_bits_popcount;
    case "bits ntz / fold_bits" test_bits_ntz_fold;
    case "chunk plan covers the space" test_chunk_plan;
    case "mask decode/encode roundtrip" test_mask_roundtrip;
    case "canonical key is iso-invariant" test_canon_iso_invariant;
    case "canonical key separates classes" test_canon_separates;
    case "canonical representative" test_canonical_graph;
    case "min_mask is the least class member" test_min_mask_exact;
    case "pool run = sequential" test_pool_run_matches_sequential;
    case "pool search returns minimal match" test_pool_search_minimal;
    case "pool propagates exceptions" test_pool_exception_propagates;
    case "orderly = mask scan on n<=6" test_strategies_agree;
    case "orderly matches OEIS counts" test_orderly_oeis_counts;
    case "orderly deterministic in jobs" test_orderly_deterministic_in_jobs;
    case "iso-class counts n<=6" test_iso_classes_counts;
    case "iso classes deterministic in jobs" test_iso_classes_deterministic;
    case "iso classes agree with Enumerate" test_iso_classes_agree_with_enumerate;
    case "class cache hits across sweeps" test_class_cache_hits;
    case "sweep verdicts deterministic in jobs" test_sweep_deterministic_across_jobs;
    case "sweep on a clean space" test_sweep_clean_space;
    case "sweep keep filter" test_sweep_keep_filter;
    case "shards partition the class stream" test_shard_partition;
    case "shard validation" test_shard_out_of_range;
    slow_case "checkpoint kill + resume = uninterrupted" test_checkpoint_kill_resume;
    case "checkpoint rejects search mode" test_checkpoint_rejects_search_mode;
    case "checkpoint merge validation" test_checkpoint_merge_validation;
    slow_case "853 classes on n=7 (LCP_HEAVY)" test_n7_classes;
    slow_case "11117 classes on n=8 (LCP_HEAVY)" test_n8_frontier;
    slow_case "261080 classes on n=9 (LCP_HEAVY)" test_n9_frontier;
    case "canon kernel = list-based oracle, n<=7" test_canon_matches_ref;
    case "canon scratch is per domain" test_canon_scratch_per_domain;
    case "orderly tallies pinned, n<=7" test_orderly_tallies;
    slow_case "canon kernel = list-based oracle, n=8 (LCP_HEAVY)"
      test_canon_matches_ref_n8;
  ]
