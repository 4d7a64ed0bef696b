open Lcp_graph

(* The group is stored in full: one vertex->vertex permutation per
   automorphism. Orders are capped at Canon.max_order = 11 and almost
   all graphs there are rigid, but the bound is n!: K9 holds 362,880
   permutations (tens of MB, transient per class) and K11 39,916,800.
   Both quotients (the certificate search's and Checker's strong
   soundness) read the group only through the prefix trie below,
   which is built from the full list. *)
type t = { n : int; perms : int array array }

let of_adj ~n adj =
  if n <= 1 then { n; perms = [| Array.init n Fun.id |] }
  else
    let _, wits = Canon.witnesses ~n adj in
    match wits with
    | [] -> assert false (* at least one relabeling achieves the minimum *)
    | q :: _ ->
        (* q, p : label -> vertex; p . q^-1 : vertex -> vertex is an
           automorphism, and witness list = Aut(G) . q: every
           automorphism keeps the refinement cells, so none is lost
           by searching only cell-respecting relabelings (see Canon). *)
        let qinv = Array.make n 0 in
        Array.iteri (fun l v -> qinv.(v) <- l) q;
        let perms =
          List.map (fun p -> Array.init n (fun v -> p.(qinv.(v)))) wits
        in
        { n; perms = Array.of_list perms }

let of_graph g = of_adj ~n:(Graph.order g) (Chunk.adj_of_graph g)
let order t = t.n
let size t = Array.length t.perms
let is_trivial t = Array.length t.perms <= 1
let perms t = t.perms

(* Transversal representatives along the stabilizer chain with base
   0, 1, ..., n-1: at level v, one permutation per non-trivial image
   of v under the pointwise stabilizer of 0..v-1. Standard strong
   generating set: any sigma factors as (representative at level 0) .
   sigma' with sigma' one level deeper, by induction. *)
let generators t =
  let gens = ref [] in
  let h = ref (Array.to_list t.perms) in
  for v = 0 to t.n - 1 do
    if List.compare_length_with !h 1 > 0 then begin
      let seen = Array.make t.n false in
      List.iter
        (fun p ->
          let u = p.(v) in
          if u <> v && not seen.(u) then begin
            seen.(u) <- true;
            gens := p :: !gens
          end)
        !h;
      h := List.filter (fun p -> p.(v) = v) !h
    end
  done;
  List.rev !gens

(* Full prefix-minimality testing as one trie. For a non-identity
   automorphism p, its program is the sequence of pairs (s, e), in
   increasing step order over the steps p moves, where e is the step
   assigned p's image of the node assigned at step s. Comparing L with
   L.p walks the program over the pairs whose steps are both assigned:
   ranks equal so far and rank(s) > rank(e) means L.p is
   lexicographically smaller on a decided prefix, so no completion of
   L is minimal in its orbit; rank(s) < rank(e) or an unassigned step
   ends the walk inconclusively. Programs sharing a prefix of pairs
   make the same decisions along it, so all of them are walked at
   once as root-to-leaf paths of a trie: descend through a node only
   on equal ranks, cut on the first node whose ranks compare greater.
   The same descent on a complete labeling, counting the programs
   whose every pair compares equal, counts the automorphisms that fix
   the labeling.

   Layout: the nodes in preorder, two ints each — the packed pair
   (activation max(s, e) from bit 9 up, bit 8 set on the last pair of
   some program, then the two nodes the pair compares, four bits
   apiece; orders are capped at Canon.max_order = 11) and the index
   one past the node's subtree. A node's children start right after
   it and follow each other by those subtree ends, sorted by
   (activation, s, e), so a sibling scan at step i stops at the first
   child activated after i. A program can end at an inner node: the
   programs it is a prefix of hang below its last pair. [steps] is the
   order's length, the number of steps a search takes. *)
type prefix = { nodes : int array; steps : int }

let prefix t ~order =
  let n = t.n in
  let pos = Array.make (max n 1) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let np = Array.length t.perms in
  (* scratch: row k holds perm k's program as packed step pairs
     (max(s, e) lsl 8) lor (s lsl 4) lor e, padded with 0 — so rows
     compare as (activation, s, e) sequences with a program before
     its extensions *)
  let keys = Array.make (np * n) 0 in
  let len = Array.make np 0 in
  Array.iteri
    (fun k p ->
      for s = 0 to n - 1 do
        let e = pos.(p.(order.(s))) in
        if e <> s then begin
          keys.((k * n) + len.(k)) <- (max s e lsl 8) lor (s lsl 4) lor e;
          len.(k) <- len.(k) + 1
        end
      done)
    t.perms;
  (* the non-identity rows in lexicographic order: the trie's preorder *)
  let rows =
    Array.of_list (List.filter (fun k -> len.(k) > 0) (List.init np Fun.id))
  in
  let rec compare_rows a b d =
    if d = n then 0
    else
      let x = keys.(a + d) in
      let c = Int.compare x keys.(b + d) in
      if c <> 0 || x = 0 then c else compare_rows a b (d + 1)
  in
  Array.stable_sort (fun a b -> compare_rows (a * n) (b * n) 0) rows;
  (* pairs each row shares with the previous one *)
  let shared =
    Array.mapi
      (fun j k ->
        let d = ref 0 in
        if j > 0 then begin
          let a = rows.(j - 1) * n in
          while !d < len.(k) && keys.(a + !d) = keys.((k * n) + !d) do
            incr d
          done
        end;
        !d)
      rows
  in
  let count = ref 0 in
  Array.iteri (fun j k -> count := !count + len.(k) - shared.(j)) rows;
  (* preorder: each row closes the previous row's nodes below the path
     they share, then appends its own remaining pairs *)
  let nodes = Array.make (2 * !count) 0 in
  let path = Array.make (max n 1) 0 in
  let next = ref 0 and depth = ref 0 in
  let close_from d =
    for d = d to !depth - 1 do
      nodes.((2 * path.(d)) + 1) <- !next
    done
  in
  Array.iteri
    (fun j k ->
      close_from shared.(j);
      for d = shared.(j) to len.(k) - 1 do
        let key = keys.((k * n) + d) in
        nodes.(2 * !next) <-
          ((key lsr 8) lsl 9)
          lor (if d = len.(k) - 1 then 0x100 else 0)
          lor (order.((key lsr 4) land 15) lsl 4)
          lor order.(key land 15);
        path.(d) <- !next;
        incr next
      done;
      depth := len.(k))
    rows;
  close_from 0;
  { nodes; steps = n }

(* The walk state: the search's trie walk, resumed step by step.

   A from-root walk at step i descends through compare-equal nodes,
   stops each sibling scan at the first child activated after i, and
   cuts on the first node comparing greater. Under the backtracking
   protocol step i follows a step i-1 that did not cut on the same
   prefix, so every node activated before i compares as it did then
   and none of them compares greater: only the nodes the step-(i-1)
   walk stopped at, activated at i, and whatever they lead to can cut.
   The walk state keeps those stops, the sibling runs [c, stop) that
   the walks so far broke off at c, bucketed by the activation of c,
   so step i scans bucket i alone. A run scanned at step i stops in
   turn at a child activated later and goes into that child's bucket,
   never into bucket i.

   The runs sit on one trail, three ints each (c, stop, the previous
   run of the same bucket), and [heads.(j)] is bucket j's newest run.
   Step i first drops the runs pushed since step i last began (the
   search came back to step i with another symbol, or from deeper),
   which restores the buckets as step i-1 left them; a cut drops the
   runs its own scan pushed, since the search will not descend. Along
   one path each trie node starts at most one run, so the trail never
   holds more than the trie's nodes plus the root run. [depth] is the
   number of steps done without a cut on the current path: step i is
   valid only when i <= depth. *)
type walk = {
  trie : int array;
  heads : int array; (* heads.(j): bucket j's newest run, -1 if empty *)
  runs : int array; (* the trail *)
  marks : int array; (* marks.(i): runs on the trail when step i began *)
  mutable top : int; (* runs on the trail *)
  mutable depth : int;
}

(* Indices into [runs], [heads] and [trie] are in range by
   construction (the trail bound above, activations below [steps]), so
   the walk's inner loop reads and writes them unchecked. *)
let push w c stop =
  let k = 3 * w.top and j = Array.unsafe_get w.trie (2 * c) lsr 9 in
  Array.unsafe_set w.runs k c;
  Array.unsafe_set w.runs (k + 1) stop;
  Array.unsafe_set w.runs (k + 2) (Array.unsafe_get w.heads j);
  Array.unsafe_set w.heads j w.top;
  w.top <- w.top + 1

let undo w mark =
  while w.top > mark do
    w.top <- w.top - 1;
    let k = 3 * w.top in
    let c = Array.unsafe_get w.runs k in
    Array.unsafe_set w.heads
      (Array.unsafe_get w.trie (2 * c) lsr 9)
      (Array.unsafe_get w.runs (k + 2))
  done

let walk p =
  let count = Array.length p.nodes / 2 in
  let w =
    {
      trie = p.nodes;
      heads = Array.make (max p.steps 1) (-1);
      runs = Array.make (3 * (count + 1)) 0;
      marks = Array.make p.steps 0;
      top = 0;
      depth = 0;
    }
  in
  if count > 0 then push w 0 count;
  w

(* Preorder walk of the sibling run [c, stop) at step i: cut on a
   compare-greater node, descend through a compare-equal one, move on
   otherwise; the run breaks off at the first node activated after i,
   which keeps the rest of it in that node's bucket. Top-level and
   allocation-free: the search calls it at every step. *)
let rec scan w rk i c stop =
  c < stop
  &&
  let key = Array.unsafe_get w.trie (2 * c) in
  if key lsr 9 > i then begin
    push w c stop;
    false
  end
  else
    let a = rk.((key lsr 4) land 15) and b = rk.(key land 15) in
    a > b
    ||
    let past = Array.unsafe_get w.trie ((2 * c) + 1) in
    (a = b && scan w rk i (c + 1) past) || scan w rk i past stop

(* the runs of one bucket, newest first, from run r on *)
let rec scan_bucket w rk i r =
  r >= 0
  &&
  let k = 3 * r in
  scan w rk i (Array.unsafe_get w.runs k) (Array.unsafe_get w.runs (k + 1))
  || scan_bucket w rk i (Array.unsafe_get w.runs (k + 2))

let step w rk i =
  if i > w.depth then
    invalid_arg "Auto.step: step i must follow an uncut step i - 1";
  if i < w.depth then undo w w.marks.(i);
  w.marks.(i) <- w.top;
  if scan_bucket w rk i w.heads.(i) then begin
    undo w w.marks.(i);
    w.depth <- i;
    true
  end
  else begin
    w.depth <- i + 1;
    false
  end

(* Preorder walk of the sibling run [c, stop) adding up the programs
   that end on a compare-equal path: every automorphism but the
   identity, which has no program, so the count starts at one. *)
let rec fixing nodes rk c stop acc =
  if c >= stop then acc
  else
    let key = nodes.(2 * c) and past = nodes.((2 * c) + 1) in
    let acc =
      if rk.((key lsr 4) land 15) = rk.(key land 15) then
        fixing nodes rk (c + 1) past (acc + ((key lsr 8) land 1))
      else acc
    in
    fixing nodes rk past stop acc

let stabilizer p rk = fixing p.nodes rk 0 (Array.length p.nodes / 2) 1
