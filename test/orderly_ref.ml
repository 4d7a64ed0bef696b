(* The unscreened orderly extension kept as a test oracle: every
   Aut(parent) orbit representative is canonicalized, and every child
   whose new vertex has maximum degree gets the canonical-deletion
   test — the generator as it stood before [Orderly.extend] screened
   siblings with a degree invariant and accepted a unique
   maximum-degree vertex without the deletion test. Sequential, no
   pool. The differential tests in test_engine.ml require the same
   listing and the same tallies as [Orderly.generate]. *)

open Lcp_engine

let popcount x = Bits.fold_bits (fun _ c -> c + 1) x 0

(* Aut(parent) acts on the neighborhood masks, and masks in one orbit
   give isomorphic children. A union-find over each generator's mask
   pairs, whose roots are the orbit minima. *)
let mask_orbits ~k padj =
  let root = Array.init (1 lsl k) Fun.id in
  let rec find x =
    if root.(x) = x then x
    else begin
      let r = find root.(x) in
      root.(x) <- r;
      r
    end
  in
  List.iter
    (fun g ->
      for s = 0 to (1 lsl k) - 1 do
        let img = Bits.fold_bits (fun v acc -> acc lor (1 lsl g.(v))) s 0 in
        let a = find s and b = find img in
        if a <> b then root.(max a b) <- min a b
      done)
    (Auto.generators (Auto.of_adj ~n:k padj));
  root

let extend ~k parent_cmask =
  let padj = Chunk.adj_of_mask k parent_cmask in
  let root = mask_orbits ~k padj in
  let child = Array.make (k + 1) 0 in
  let seen = Hashtbl.create 64 in
  let accepted = ref [] in
  let classes = ref 0 in
  for s = 0 to (1 lsl k) - 1 do
    if root.(s) = s then begin
      Array.blit padj 0 child 0 k;
      child.(k) <- s;
      Bits.fold_bits (fun v () -> child.(v) <- child.(v) lor (1 lsl k)) s ();
      let cmask = Canon.canonical_mask ~n:(k + 1) child in
      if not (Hashtbl.mem seen cmask) then begin
        Hashtbl.replace seen cmask ();
        incr classes;
        let deg = popcount s in
        if Array.for_all (fun row -> popcount row <= deg) child then begin
          let cadj = Chunk.adj_of_mask (k + 1) cmask in
          let deleted = Array.init k (fun v -> cadj.(v) land lnot (1 lsl k)) in
          if Canon.canonical_mask ~n:k deleted = parent_cmask then
            accepted := cmask :: !accepted
        end
      end
    end
  done;
  (!accepted, 1 lsl k, (1 lsl k) - !classes)

let generate ~connected n =
  if n = 0 then
    ( [ 0 ],
      {
        Orderly.candidates = 0;
        dedup_hits = 0;
        classes_all = 1;
        connected_classes = 1;
        classes = 1;
      } )
  else begin
    let level = ref [ 0 ] in
    let candidates = ref 0 and dedup = ref 0 in
    for k = 1 to n - 1 do
      let next = ref [] in
      List.iter
        (fun parent ->
          let masks, cand, d = extend ~k parent in
          candidates := !candidates + cand;
          dedup := !dedup + d;
          next := List.rev_append masks !next)
        !level;
      level := List.sort compare !next
    done;
    let all = !level in
    let is_conn m = Chunk.is_connected_adj (Chunk.adj_of_mask n m) in
    let connected_classes = List.length (List.filter is_conn all) in
    let kept = if connected then List.filter is_conn all else all in
    let reps =
      List.sort compare
        (List.map
           (fun cmask ->
             Canon.min_mask ~init:cmask ~n (Chunk.adj_of_mask n cmask))
           kept)
    in
    ( reps,
      {
        Orderly.candidates = !candidates;
        dedup_hits = !dedup;
        classes_all = List.length all;
        connected_classes;
        classes = List.length reps;
      } )
  end
