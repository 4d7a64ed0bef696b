open Lcp_graph

(* The group is stored in full: one vertex->vertex permutation per
   automorphism. Orders are capped at Canon.max_order = 11 and almost
   all graphs there are rigid, but the bound is n!: K9 holds 362,880
   permutations (tens of MB, transient per class) and K11 39,916,800.
   Storing the full group keeps orbit weights and exact lex-minimality
   tests (Checker's quotient) trivially correct. *)
type t = { n : int; perms : int array array }

let of_adj ~n adj =
  if n <= 1 then { n; perms = [| Array.init n Fun.id |] }
  else
    let _, wits = Canon.min_witnesses ~n adj in
    match wits with
    | [] -> assert false (* at least one relabeling achieves the minimum *)
    | q :: _ ->
        (* q, p : label -> vertex; p . q^-1 : vertex -> vertex is an
           automorphism, and witness list = Aut(G) . q (see Canon). *)
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

let orbits t =
  let parent = Array.init t.n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  Array.iter (fun p -> Array.iteri union p) t.perms;
  Array.init t.n (fun v -> find v)

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

   Layout: the nodes in preorder, two ints each — the packed pair
   (activation max(s, e), then the two nodes the pair compares, four
   bits apiece; orders are capped at Canon.max_order = 11) and the
   index one past the node's subtree. A node's children start right
   after it and follow each other by those subtree ends, sorted by
   (activation, s, e), so a sibling scan at step i stops at the first
   child activated after i. *)
type prefix = int array

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
          key land lnot 0xff
          lor (order.((key lsr 4) land 15) lsl 4)
          lor order.(key land 15);
        path.(d) <- !next;
        incr next
      done;
      depth := len.(k))
    rows;
  close_from 0;
  nodes

(* Preorder walk of the sibling run [c, stop): cut on a compare-greater
   node, descend through a compare-equal one, move on otherwise; the
   run ends at the first node activated after step i. Top-level and
   non-allocating: the search calls it at every step. *)
let rec walk nodes rk i c stop =
  c < stop
  &&
  let key = Array.unsafe_get nodes (2 * c) in
  key lsr 8 <= i
  &&
  let a = rk.((key lsr 4) land 15) and b = rk.(key land 15) in
  a > b
  ||
  let past = Array.unsafe_get nodes ((2 * c) + 1) in
  (a = b && walk nodes rk i (c + 1) past) || walk nodes rk i past stop

let cuts p rk i = walk p rk i 0 (Array.length p / 2)

(* First-assignment symmetry breaking for a backtracking search that
   assigns nodes in [order]: constraints whose satisfaction is
   necessary for a labeling L to be lexicographically minimal in its
   Aut-orbit, where labelings compare by the alphabet-rank sequence
   along [order]. At chain level i, with H_i the pointwise stabilizer
   of order.(0..i-1), any sigma in H_i sending order.(i) to u makes
   L.sigma agree with L on the first i positions and hold L(u) at
   position i — so minimality forces rank(L(u)) >= rank(L(order.(i)))
   for every u in the H_i-orbit of order.(i). H_i cannot move a
   stabilized point, so every such u sits at a strictly later
   position and the constraint is checkable the moment u is assigned.
   Result: [cs.(s)] lists earlier steps [e] such that
   rank(L(order.(s))) >= rank(L(order.(e))) must hold at step [s].
   Only labelings that are not orbit-minimal are ever cut. *)
let lex_constraints t ~order =
  let n = t.n in
  let pos = Array.make (max n 1) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let cs = Array.make (max n 1) [] in
  let h = ref (Array.to_list t.perms) in
  for i = 0 to n - 1 do
    if List.compare_length_with !h 1 > 0 then begin
      let v = order.(i) in
      let seen = Array.make n false in
      List.iter
        (fun p ->
          let u = p.(v) in
          if u <> v && not seen.(u) then begin
            seen.(u) <- true;
            cs.(pos.(u)) <- i :: cs.(pos.(u))
          end)
        !h;
      h := List.filter (fun p -> p.(v) = v) !h
    end
  done;
  Array.map List.rev cs
