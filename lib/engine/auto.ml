open Lcp_graph

(* The group is stored in full: one vertex->vertex permutation per
   automorphism. Orders are capped at Canon.max_order = 11 and almost
   all graphs there are rigid; the worst case in a connected sweep is
   K9 with 9! = 362,880 permutations — a few tens of MB, transient per
   class. Storing the full group keeps orbit weights and exact
   lex-minimality tests (Checker's quotient) trivially correct. *)
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

(* Full prefix-minimality programs: for each non-identity
   automorphism p, the pairs (s, e) — in increasing step order,
   restricted to the steps p moves — where e is the step assigned p's
   image of the node assigned at step s. A backtracking search in
   [order] compares L against L.p by walking a program in order over
   the pairs whose steps are both assigned: ranks equal so far and
   rank(s) > rank(e) means L.p is lexicographically smaller on a
   decided prefix, so no completion of L is minimal in its orbit and
   the branch can be cut; rank(s) < rank(e) or an unassigned step ends
   the walk inconclusively. Steps p fixes always compare equal and are
   omitted. Any subset of the group yields sound (if weaker) pruning,
   so callers may truncate the result. *)
let prefix_programs t ~order =
  let n = t.n in
  let pos = Array.make (max n 1) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let program p =
    let moved = ref [] in
    for s = n - 1 downto 0 do
      let e = pos.(p.(order.(s))) in
      if e <> s then moved := (s, e) :: !moved
    done;
    match !moved with [] -> None | l -> Some (Array.of_list l)
  in
  let activation prog =
    let s, e = prog.(0) in
    max s e
  in
  (* ascending activation step (the first step at which the program
     can say anything): a search at step [i] can stop scanning at the
     first program whose activation exceeds [i], which makes the
     shallow — exponentially hottest — nodes nearly free. Stable, so
     the order stays deterministic. *)
  List.filter_map program (Array.to_list t.perms)
  |> List.stable_sort (fun a b -> compare (activation a) (activation b))
  |> Array.of_list

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
