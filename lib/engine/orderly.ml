type tallies = {
  candidates : int;
  dedup_hits : int;
  classes_all : int;
  connected_classes : int;
  classes : int;
}

let max_order = Canon.max_order

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

(* Extend one canonical parent on [k] nodes by a new vertex [k] with
   every neighborhood bitmask. Returns the accepted children's
   canonical masks (ascending), the candidate count and the local
   dedup tally. Acceptance is the canonical-deletion test: the child's
   canonical form, minus its top-labeled vertex, must canonicalize
   back to this parent — a predicate of the child's class alone, so no
   two parents accept the same class.

   Two filters spare canonicalizations without changing the result.
   Only the minimum of each Aut(parent) orbit of masks is
   canonicalized; the rest of the orbit is a dedup hit by
   construction, so dedup stays [2^k] minus the distinct child
   classes. And the top-labeled vertex comes from the highest refined
   color, hence has maximum degree, so deleting it can give back the
   parent's edge count only if the new vertex's degree [popcount s]
   is the child's maximum degree; every other child is rejected
   without the deletion test. *)
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
        let deg = Bits.popcount s in
        if Array.for_all (fun row -> Bits.popcount row <= deg) child then begin
          let cadj = Chunk.adj_of_mask (k + 1) cmask in
          let deleted = Array.init k (fun v -> cadj.(v) land lnot (1 lsl k)) in
          if Canon.canonical_mask ~n:k deleted = parent_cmask then
            accepted := cmask :: !accepted
        end
      end
    end
  done;
  ( List.sort (fun (a : int) b -> compare a b) !accepted,
    1 lsl k,
    (1 lsl k) - !classes )

let generate ?(jobs = 1) ?metrics ~connected n =
  if n < 0 then invalid_arg "Orderly.generate: negative order";
  if n > max_order then
    invalid_arg
      (Printf.sprintf "Orderly.generate: order %d exceeds %d" n max_order);
  if n = 0 then
    ( [ 0 ],
      {
        candidates = 0;
        dedup_hits = 0;
        classes_all = 1;
        connected_classes = 1;
        classes = 1;
      } )
  else begin
    let level = ref [| 0 |] in
    let candidates = ref 0 and dedup = ref 0 in
    for k = 1 to n - 1 do
      let parents = !level in
      let per_parent =
        Pool.run ?metrics ~jobs (Array.length parents) (fun i ->
            extend ~k parents.(i))
      in
      let acc = ref [] in
      Array.iter
        (fun (masks, cand, d) ->
          candidates := !candidates + cand;
          dedup := !dedup + d;
          acc := List.rev_append masks !acc)
        per_parent;
      (* disjoint across parents: sorting is for determinism of the
         next level's parent order, not dedup *)
      level := Array.of_list (List.sort (fun (a : int) b -> compare a b) !acc)
    done;
    let all = Array.to_list !level in
    let is_conn m = Chunk.is_connected_adj (Chunk.adj_of_mask n m) in
    let connected_classes = List.length (List.filter is_conn all) in
    let kept = if connected then List.filter is_conn all else all in
    (* representatives: the exact minimal mask of each class — the one
       the ascending mask scan keeps — seeded with the canonical mask
       (a member, hence an upper bound) for pruning; one pool task per
       class, results in class order whatever [jobs] *)
    let reps =
      Pool.map ?metrics ~jobs
        (fun cmask -> Canon.min_mask ~init:cmask ~n (Chunk.adj_of_mask n cmask))
        (Array.of_list kept)
      |> Array.to_list
      |> List.sort (fun (a : int) b -> compare a b)
    in
    ( reps,
      {
        candidates = !candidates;
        dedup_hits = !dedup;
        classes_all = List.length all;
        connected_classes;
        classes = List.length reps;
      } )
  end
