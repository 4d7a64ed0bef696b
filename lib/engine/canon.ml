open Lcp_graph

(* Edge masks must fit an OCaml int (and [key] packs the order into 4
   extra bits): 11 * 10 / 2 = 55 mask bits + 4 order bits = 59 < 63. *)
let max_order = 11

let check_order ~who n =
  if n > max_order then
    invalid_arg (Printf.sprintf "Canon.%s: order %d exceeds %d" who n max_order)

(* Popcount and bit index over vertex sets (below 2^max_order). They
   live here rather than in [Bits] because dev builds compile with
   -opaque, which makes every cross-module call an uninlined one, and
   these sit in the innermost loops. The mask keeps a malformed row
   inside the table. *)
let vmask = (1 lsl max_order) - 1

let pop_table =
  let t = Bytes.make (vmask + 1) '\000' in
  for i = 1 to vmask do
    Bytes.unsafe_set t i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let pop x = Char.code (Bytes.unsafe_get pop_table (x land vmask))

(* index of the single set bit of [b] *)
let bit_index b = pop (b - 1)

(* Per-domain scratch: nothing below allocates except the witness
   copies. Systhreads share their domain's DLS and can be preempted
   at any poll point inside a search, so a call that finds the
   scratch taken runs on a fresh one; there is no poll point between
   the [busy] test and its set. *)
type scratch = {
  mutable busy : bool;
  colors : int array;  (* refinement color per vertex *)
  sigs : int array;  (* this round's signature per vertex *)
  by_sig : int array;  (* vertices sorted by signature *)
  cell : int array;  (* [cell.(c)]: vertex set of color [c] *)
  pool : int array;  (* [pool.(l)]: the cell label [l] draws from *)
  vert_of : int array;  (* [vert_of.(l)]: vertex placed at label [l] *)
  lrow : int array;
      (* label-space rows: bit [m] of [lrow.(x)] iff [x] is adjacent to
         [vert_of.(m)]; kept for the unplaced vertices only *)
  mutable best : int;
  mutable collect : bool;
  mutable wits : int array list;
}

let make_scratch () =
  let a () = Array.make (max_order + 1) 0 in
  {
    busy = false;
    colors = a ();
    sigs = a ();
    by_sig = a ();
    cell = a ();
    pool = a ();
    vert_of = a ();
    lrow = a ();
    best = 0;
    collect = false;
    wits = [];
  }

let scratch_key = Domain.DLS.new_key make_scratch

let acquire () =
  let s = Domain.DLS.get scratch_key in
  if s.busy then make_scratch ()
  else begin
    s.busy <- true;
    s
  end

let release s =
  s.wits <- [];
  s.busy <- false

(* the cells of the colors 0..top *)
let fill_cells s n top =
  for c = 0 to top do
    s.cell.(c) <- 0
  done;
  for v = 0 to n - 1 do
    let c = s.colors.(v) in
    s.cell.(c) <- s.cell.(c) lor (1 lsl v)
  done

(* Iterative refinement (1-WL): colors start as degrees and are
   repeatedly replaced by the rank of an integer signature encoding
   (own color, per-color neighbor counts), a count being the popcount
   of the row against the color's vertex set. The encoding is exact,
   not a hash: with [c <= n] colors and counts [< n + 1], the
   base-(n+1) digits [own color + 1 :: counts for colors 0..n-1] stay
   below (n+1)^(n+2) <= 12^13 < 2^62, so distinct signatures get
   distinct integers. Colors above the largest one have empty cells,
   so their zero digits are a common scale factor. Own color is the
   leading digit, so the final colors refine degree order. Leaves the
   colors in [s.colors] and the cell sets in [s.cell]; returns the
   largest color. *)
let refine s n adj =
  let colors = s.colors and sigs = s.sigs and by_sig = s.by_sig in
  let cell = s.cell in
  let top = ref 0 in
  for v = 0 to n - 1 do
    colors.(v) <- pop adj.(v);
    if colors.(v) > !top then top := colors.(v)
  done;
  let stable = ref false in
  let rounds = ref 0 in
  while (not !stable) && !rounds < n do
    incr rounds;
    fill_cells s n !top;
    let scale = ref 1 in
    for _ = !top + 1 to n - 1 do
      scale := !scale * (n + 1)
    done;
    for v = 0 to n - 1 do
      let row = adj.(v) in
      let h = ref (colors.(v) + 1) in
      for c = 0 to !top do
        h := (!h * (n + 1)) + pop (row land cell.(c))
      done;
      sigs.(v) <- !h * !scale;
      (* insertion sort by signature *)
      let j = ref (v - 1) in
      while !j >= 0 && sigs.(by_sig.(!j)) > sigs.(v) do
        by_sig.(!j + 1) <- by_sig.(!j);
        decr j
      done;
      by_sig.(!j + 1) <- v
    done;
    (* rank = position among the distinct signature values *)
    let changed = ref false in
    let rank = ref 0 in
    for i = 0 to n - 1 do
      let v = by_sig.(i) in
      if i > 0 && sigs.(v) <> sigs.(by_sig.(i - 1)) then incr rank;
      if colors.(v) <> !rank then changed := true;
      colors.(v) <- !rank
    done;
    top := !rank;
    if not !changed then stable := true
  done;
  fill_cells s n !top;
  !top

(* bases.(n).(l) = slot index of the pair (l, l+1): the least
   significant slot decided when label l is placed. The formula
   extends to l = n-1 (whose block is empty) as the total slot count,
   which makes its prune comparison trivially true. *)
let bases =
  Array.init (max_order + 1) (fun n ->
      Array.init (max n 1) (fun l -> (l * ((2 * n) - l - 3) / 2) + l))

(* The one branch-and-bound. Label [l] takes an unplaced vertex of the
   cell [s.pool.(l)], ascending, and labels go from [n-1] downward, so
   the bit block decided by placing label [l] — slots [(l, l+1) ..
   (l, n-1)] — is strictly less significant than everything already
   decided. The block is [x]'s label-space row shifted into place. A
   partial assignment whose decided bits exceed the incumbent on the
   same slots cannot be completed into a smaller mask and is
   abandoned; the prune keeps ties, so with the incumbent pinned at
   the true minimum ([s.collect]) the leaves reached are exactly the
   min-achieving bijections, recorded in discovery order. *)
let rec place s ~n adj bases label assigned partial =
  if label < 0 then begin
    if s.collect then begin
      if partial = s.best then s.wits <- Array.sub s.vert_of 0 n :: s.wits
    end
    else if partial < s.best then s.best <- partial
  end
  else begin
    let base = bases.(label) and shift = label + 1 and bit = 1 lsl label in
    let lrow = s.lrow in
    let cand = ref (s.pool.(label) land lnot assigned) in
    while !cand <> 0 do
      let b = !cand land - !cand in
      cand := !cand lxor b;
      let x = bit_index b in
      let partial = partial lor ((lrow.(x) lsr shift) lsl base) in
      (* lsr/lsl are right-associative: parens required *)
      if partial <= (s.best lsr base) lsl base then begin
        s.vert_of.(label) <- x;
        let assigned = assigned lor b in
        let nbrs = adj.(x) land lnot assigned in
        let m = ref nbrs in
        while !m <> 0 do
          let y = bit_index (!m land - !m) in
          lrow.(y) <- lrow.(y) lor bit;
          m := !m land (!m - 1)
        done;
        place s ~n adj bases (label - 1) assigned partial;
        let m = ref nbrs in
        while !m <> 0 do
          let y = bit_index (!m land - !m) in
          lrow.(y) <- lrow.(y) lxor bit;
          m := !m land (!m - 1)
        done
      end
    done
  end

(* [s.lrow] is all zero between searches: every placement is undone *)
let search s ~n adj ~collect ~init =
  s.best <- init;
  s.collect <- collect;
  place s ~n adj bases.(n) (n - 1) 0 0;
  s.best

(* the trivial partition: every label draws from all vertices *)
let one_cell s n = Array.fill s.pool 0 n ((1 lsl n) - 1)

(* the refined partition: the i-th color cell onto the i-th contiguous
   label block, highest color on the highest labels *)
let refined_cells s n adj =
  let top = refine s n adj in
  let l = ref (n - 1) in
  for c = top downto 0 do
    let cm = s.cell.(c) in
    for _ = 1 to pop cm do
      s.pool.(!l) <- cm;
      decr l
    done
  done

let min_witnesses ~n adj =
  check_order ~who:"min_witnesses" n;
  if n <= 1 then (0, [ Array.init n Fun.id ])
  else begin
    let s = acquire () in
    one_cell s n;
    let best = search s ~n adj ~collect:false ~init:max_int in
    ignore (search s ~n adj ~collect:true ~init:best);
    let wits = List.rev s.wits in
    release s;
    (best, wits)
  end

let canonical_mask ~n adj =
  check_order ~who:"canonical_mask" n;
  if n <= 1 then 0
  else begin
    let s = acquire () in
    refined_cells s n adj;
    let best = search s ~n adj ~collect:false ~init:max_int in
    release s;
    best
  end

let min_mask ?(init = max_int) ~n adj =
  check_order ~who:"min_mask" n;
  if n <= 1 then 0
  else begin
    let s = acquire () in
    one_cell s n;
    let best = search s ~n adj ~collect:false ~init in
    release s;
    best
  end

let key_adj ~n adj = (canonical_mask ~n adj lsl 4) lor n

let key g =
  let n = Graph.order g in
  key_adj ~n (Chunk.adj_of_graph g)

let canonical_graph g =
  let n = Graph.order g in
  Chunk.graph_of_mask n (canonical_mask ~n (Chunk.adj_of_graph g))
