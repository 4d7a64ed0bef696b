type tallies = {
  candidates : int;
  dedup_hits : int;
  classes_all : int;
  connected_classes : int;
  classes : int;
}

let max_order = Canon.max_order

(* Popcount over vertex sets (below 2^max_order), local for the same
   reason as [Canon]'s: dev builds compile with -opaque, and this sits
   in the per-child loop. *)
let vmask = (1 lsl max_order) - 1

let pop_table =
  let t = Bytes.make (vmask + 1) '\000' in
  for i = 1 to vmask do
    Bytes.unsafe_set t i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let pop x = Char.code (Bytes.unsafe_get pop_table (x land vmask))

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

(* One fixed pseudo-random word per (degree, neighbor-degree sum) pair
   ([deg lsl 7 lor nsum]: degrees stay below [max_order] and sums below
   [max_order^2 < 128]). A child's invariant is the sum of its
   vertices' words — a hash of the multiset of pairs, so isomorphic
   children get equal invariants whatever the vertex order. *)
let pair_word =
  let mix x =
    let x = (x lxor (x lsr 29)) * 0x3f58476d1ce4e5b9 in
    let x = (x lxor (x lsr 32)) * 0x14d049bb133111eb in
    x lxor (x lsr 30)
  in
  Array.init (max_order lsl 7) (fun i -> mix (mix (i + 1)))

(* Extend one canonical parent on [k] nodes by a new vertex [k] with
   every neighborhood bitmask. Returns the accepted children's
   canonical masks (ascending), the candidate count and the local
   dedup tally. Acceptance is the canonical-deletion test: the child's
   canonical form, minus its top-labeled vertex, must canonicalize
   back to this parent — a predicate of the child's class alone, so no
   two parents accept the same class.

   Filters spare canonicalizations without changing the result:

   - only the minimum of each Aut(parent) orbit of masks is looked at;
     the rest of the orbit is a dedup hit by construction, so dedup
     stays [2^k] minus the distinct child classes;
   - each remaining child gets the invariant above, computed from the
     parent's degrees and neighbor-degree sums in [k] popcounts. A
     child whose invariant no sibling shares is isomorphic to none of
     them, so it is a new class without a canonical form; only
     colliding children are canonicalized and deduplicated in [seen];
   - the top-labeled vertex comes from the highest refined color, hence
     has maximum degree, so deleting it can give back the parent's
     edge count only if the new vertex's degree [pop s] is the child's
     maximum degree; every other child is rejected without a canonical
     form (unless its invariant collides) and without the deletion
     test;
   - if the new vertex is the {e only} vertex of maximum degree, the
     top cell is [{k}], label [k] is vertex [k], and the canonical
     deletion gives back this parent by construction: the child is
     accepted on its canonical mask alone.

   Invariants are hashes, so a collision between non-isomorphic
   children only costs canonicalizations. *)
let extend ~k parent_cmask =
  let padj = Chunk.adj_of_mask k parent_cmask in
  let root = mask_orbits ~k padj in
  let deg = Array.map pop padj in
  let nsum =
    Array.map (fun row -> Bits.fold_bits (fun u acc -> acc + deg.(u)) row 0) padj
  in
  (* the orbit representatives, the largest degree among the old
     vertices of each child, and each child's slot in an
     open-addressing table of invariants with their multiplicities
     (at most [space] keys in [2 * space] slots) *)
  let space = 1 lsl k in
  let reps = Array.make space 0 and top = Array.make space 0 in
  let slot = Array.make space 0 in
  let cap = 2 * space in
  let keys = Array.make cap 0 and tally = Array.make cap 0 in
  let r = ref 0 in
  for s = 0 to space - 1 do
    if root.(s) = s then begin
      let m = pop s in
      let h = ref 0 and mx = ref 0 and nnew = ref m in
      for v = 0 to k - 1 do
        let b = (s lsr v) land 1 in
        let d = deg.(v) + b in
        if d > !mx then mx := d;
        nnew := !nnew + (b * deg.(v));
        h :=
          !h
          + pair_word.((d lsl 7) lor (nsum.(v) + pop (padj.(v) land s) + (b * m)))
      done;
      let h = !h + pair_word.((m lsl 7) lor !nnew) in
      let j = ref (h land (cap - 1)) in
      while tally.(!j) > 0 && keys.(!j) <> h do
        j := (!j + 1) land (cap - 1)
      done;
      keys.(!j) <- h;
      tally.(!j) <- tally.(!j) + 1;
      reps.(!r) <- s;
      top.(!r) <- !mx;
      slot.(!r) <- !j;
      incr r
    end
  done;
  let child = Array.make (k + 1) 0 in
  let canonical s =
    Array.blit padj 0 child 0 k;
    child.(k) <- s;
    Bits.fold_bits (fun v () -> child.(v) <- child.(v) lor (1 lsl k)) s ();
    Canon.canonical_mask ~n:(k + 1) child
  in
  let deletion_gives_parent cmask =
    let cadj = Chunk.adj_of_mask (k + 1) cmask in
    let deleted = Array.init k (fun v -> cadj.(v) land lnot (1 lsl k)) in
    Canon.canonical_mask ~n:k deleted = parent_cmask
  in
  (* for a child whose new vertex has maximum degree *)
  let accepted = ref [] in
  let accept i cmask =
    if pop reps.(i) > top.(i) || deletion_gives_parent cmask then
      accepted := cmask :: !accepted
  in
  let seen = Hashtbl.create 16 in
  let classes = ref 0 in
  for i = 0 to !r - 1 do
    let s = reps.(i) in
    if tally.(slot.(i)) = 1 then begin
      incr classes;
      if pop s >= top.(i) then accept i (canonical s)
    end
    else begin
      let cmask = canonical s in
      if not (Hashtbl.mem seen cmask) then begin
        Hashtbl.replace seen cmask ();
        incr classes;
        if pop s >= top.(i) then accept i cmask
      end
    end
  done;
  ( List.sort (fun (a : int) b -> compare a b) !accepted,
    space,
    space - !classes )

let generate ?(jobs = 1) ?metrics n =
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
    (* the two pool phases as child spans of the caller's, opened on
       the calling domain *)
    let span name f =
      match metrics with
      | Some m -> Lcp_obs.Metrics.with_span m name f
      | None -> f ()
    in
    let level = ref [| 0 |] in
    let candidates = ref 0 and dedup = ref 0 in
    for k = 1 to n - 1 do
      let parents = !level in
      let per_parent =
        span "extend" (fun () ->
            let count = Array.length parents in
            Pool.run ?metrics ~jobs:(Pool.effective_jobs ~jobs count) count
              (fun i -> extend ~k parents.(i)))
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
    let conn = List.filter is_conn all in
    let connected_classes = List.length conn in
    (* representatives: the exact minimal mask of each class — the one
       the ascending mask scan keeps — seeded with the canonical mask
       (a member, hence an upper bound) for pruning; one pool task per
       class, results in class order whatever [jobs] *)
    let reps =
      span "min_mask" (fun () ->
          Pool.map ?metrics
            ~jobs:(Pool.effective_jobs ~jobs connected_classes)
            (fun cmask ->
              Canon.min_mask ~init:cmask ~n (Chunk.adj_of_mask n cmask))
            (Array.of_list conn))
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
