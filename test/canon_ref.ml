(* The list-based Canon kept as a test oracle: the implementation
   that preceded the single branch-and-bound kernel in
   lib/engine/canon.ml, verbatim apart from this header and the opens.
   The differential tests in test_engine.ml check the kernel against
   it value for value, witness order included. *)

open Lcp_engine
open Lcp_graph

let popcount = Bits.popcount

(* Edge masks must fit an OCaml int (and [key] packs the order into 4
   extra bits): 11 * 10 / 2 = 55 mask bits + 4 order bits = 59 < 63. *)
let max_order = 11

let check_order ~who n =
  if n > max_order then
    invalid_arg (Printf.sprintf "Canon.%s: order %d exceeds %d" who n max_order)

(* Iterative refinement (1-WL): colors start as degrees and are
   repeatedly replaced by the rank of an integer signature encoding
   (own color, per-color neighbor counts). Counting neighbors per
   color in color order replaces the historical sort of
   [(int, int list)] signatures: no allocation per node, no
   polymorphic compare. The encoding is exact, not a hash: with
   [c <= n] colors and counts [< n + 1], the base-(n+1) digits
   [own color :: counts] stay below (n+1)^(n+2) <= 12^13 < 2^62, so
   distinct signatures get distinct integers and the partition is
   identical to the one the sorted-signature ranking produced. *)
let refine n adj =
  let colors = Array.init n (fun v -> popcount adj.(v)) in
  if n = 0 then colors
  else begin
    let sigs = Array.make n 0 in
    let sorted = Array.make n 0 in
    let counts = Array.make (n + 1) 0 in
    let stable = ref false in
    let rounds = ref 0 in
    while (not !stable) && !rounds < n do
      incr rounds;
      for v = 0 to n - 1 do
        let m = ref adj.(v) in
        while !m <> 0 do
          let b = !m land - !m in
          let c = colors.(Bits.ntz b) in
          counts.(c) <- counts.(c) + 1;
          m := !m lxor b
        done;
        let h = ref (colors.(v) + 1) in
        for c = 0 to n - 1 do
          h := (!h * (n + 1)) + counts.(c);
          counts.(c) <- 0
        done;
        sigs.(v) <- !h
      done;
      (* rank = position among the distinct signature values *)
      Array.blit sigs 0 sorted 0 n;
      Array.sort (fun (a : int) b -> compare a b) sorted;
      let distinct = ref 1 in
      for i = 1 to n - 1 do
        if sorted.(i) <> sorted.(!distinct - 1) then begin
          sorted.(!distinct) <- sorted.(i);
          incr distinct
        end
      done;
      let rank s =
        let lo = ref 0 and hi = ref (!distinct - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if sorted.(mid) < s then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      let changed = ref false in
      for v = 0 to n - 1 do
        let r = rank sigs.(v) in
        if r <> colors.(v) then changed := true;
        colors.(v) <- r
      done;
      if not !changed then stable := true
    done;
    colors
  end

let cells_of_colors n colors =
  let max_c = Array.fold_left max 0 colors in
  let buckets = Array.make (max_c + 1) [] in
  for v = n - 1 downto 0 do
    buckets.(colors.(v)) <- v :: buckets.(colors.(v))
  done;
  Array.to_list buckets |> List.filter (fun c -> c <> [])

(* Minimum edge mask over the bijections that send the i-th cell onto
   the i-th contiguous label block (cells listed lowest labels first).
   Labels are assigned from [n-1] downward, so the bit block decided
   by placing label [l] — slots [(l, l+1) .. (l, n-1)] — is strictly
   less significant than everything already decided. That makes the
   lexicographic early abort a single integer comparison: a partial
   assignment whose decided bits exceed the incumbent best on the
   same slots cannot be completed into a smaller mask and is
   abandoned; one that is strictly below is guaranteed to win and
   runs un-pruned to the leaf. [init] seeds the incumbent (pass the
   mask of any member of the class to tighten pruning; [max_int]
   otherwise). *)
let minimize ~n adj ~init cells =
  let cells = Array.of_list (List.map Array.of_list (List.rev cells)) in
  let ncells = Array.length cells in
  let vert_of = Array.make (max n 1) 0 in
  (* bases.(l) = slot index of the pair (l, l+1): the least
     significant slot decided when label l is placed. The formula
     extends to l = n-1 (whose block is empty) as the total slot
     count, which makes its prune comparison trivially true. *)
  let bases = Array.init (max n 1) (fun l -> (l * ((2 * n) - l - 3) / 2) + l) in
  let best = ref init in
  let cell_size ci = if ci < ncells then Array.length cells.(ci) else 0 in
  let rec place ci left label assigned partial =
    if ci = ncells then begin
      if partial < !best then best := partial
    end
    else begin
      let cell = cells.(ci) in
      for j = 0 to Array.length cell - 1 do
        let x = cell.(j) in
        if assigned land (1 lsl x) = 0 then begin
          let base = bases.(label) in
          let row = adj.(x) in
          let blk = ref 0 in
          for m = label + 1 to n - 1 do
            if row land (1 lsl vert_of.(m)) <> 0 then
              blk := !blk lor (1 lsl (base + m - label - 1))
          done;
          let partial = partial lor !blk in
          (* lsr/lsl are right-associative: parens required *)
          if partial <= (!best lsr base) lsl base then begin
            vert_of.(label) <- x;
            if left = 1 then
              place (ci + 1) (cell_size (ci + 1)) (label - 1)
                (assigned lor (1 lsl x)) partial
            else
              place ci (left - 1) (label - 1) (assigned lor (1 lsl x)) partial
          end
        end
      done
    end
  in
  place 0 (cell_size 0) (n - 1) 0 0;
  !best

(* Every label->vertex bijection achieving a known minimum mask. The
   same branch-and-bound as [minimize] over the trivial one-cell
   partition, but with the incumbent pinned at the true minimum: the
   tie-keeping [<=] prune then visits exactly the min-achieving leaves
   (nothing can beat the pinned incumbent, so every surviving leaf
   ties). Relabeling by any two witnesses produces the same minimal
   graph, so [p . q^-1] is an automorphism for every witness pair and
   the witness list is [Aut(G) . q] for any fixed witness [q] — the
   automorphism group falls out of the minimization (see {!Auto}). *)
let collect_witnesses ~n adj ~best =
  let vert_of = Array.make n 0 in
  let bases = Array.init n (fun l -> (l * ((2 * n) - l - 3) / 2) + l) in
  let acc = ref [] in
  let rec place label assigned partial =
    if label < 0 then begin
      if partial = best then acc := Array.copy vert_of :: !acc
    end
    else
      for x = 0 to n - 1 do
        if assigned land (1 lsl x) = 0 then begin
          let base = bases.(label) in
          let row = adj.(x) in
          let blk = ref 0 in
          for m = label + 1 to n - 1 do
            if row land (1 lsl vert_of.(m)) <> 0 then
              blk := !blk lor (1 lsl (base + m - label - 1))
          done;
          let partial = partial lor !blk in
          if partial <= (best lsr base) lsl base then begin
            vert_of.(label) <- x;
            place (label - 1) (assigned lor (1 lsl x)) partial
          end
        end
      done
  in
  place (n - 1) 0 0;
  List.rev !acc

let min_witnesses ~n adj =
  check_order ~who:"min_witnesses" n;
  if n <= 1 then (0, [ Array.init n Fun.id ])
  else
    let best = minimize ~n adj ~init:max_int [ List.init n Fun.id ] in
    (best, collect_witnesses ~n adj ~best)

let canonical_mask ~n adj =
  check_order ~who:"canonical_mask" n;
  if n <= 1 then 0
  else minimize ~n adj ~init:max_int (cells_of_colors n (refine n adj))

let min_mask ?init ~n adj =
  check_order ~who:"min_mask" n;
  if n <= 1 then 0
  else
    let init = match init with Some m -> m | None -> max_int in
    minimize ~n adj ~init [ List.init n Fun.id ]

let key_adj ~n adj = (canonical_mask ~n adj lsl 4) lor n

let key g =
  let n = Graph.order g in
  key_adj ~n (Chunk.adj_of_graph g)

let canonical_graph g =
  let n = Graph.order g in
  Chunk.graph_of_mask n (canonical_mask ~n (Chunk.adj_of_graph g))
