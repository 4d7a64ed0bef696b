(** Automorphism groups of small graphs, harvested from {!Canon}.

    {!Canon.min_witnesses} returns every relabeling that achieves the
    minimal edge mask; composing each witness with a fixed witness's
    inverse turns that list into the full automorphism group [Aut(G)]
    as vertex permutations. This module packages the group together
    with the two quotient operations the certificate searches need:

    - {!orbits} / {!generators}: node orbits and a small (strong)
      generating set, for reporting and validation;
    - {!lex_constraints} / {!prefix}: symmetry breaking for a
      backtracking labeling search — per-step conditions that cut a
      partial labeling only if {e no} completion of it is
      lexicographically minimal in its Aut-orbit. Restricting a search
      to orbit minima is sound for any decoder whose per-node verdict
      is invariant under the graph's automorphisms (anonymous {e and}
      port-invariant decoders: the verdict depends only on the labeled
      isomorphism type of the view), because acceptance of [L] and of
      [L∘σ] coincide and the lexicographically first accepted labeling
      is automatically minimal in its own orbit.

    Orders are capped at {!Canon.max_order} = 11 and the group is
    stored in full, one permutation per element, so memory and
    harvest time grow with [|Aut(G)| <= n!]: K8 has 40,320 elements
    (a few MB), K9 362,880 (tens of MB), and the worst case at the
    cap, K11, 39,916,800 (several GB, out of reach). Rigid graphs
    dominate every real sweep; the complete graph is the one
    maximal-group class of each order. *)

type t

val of_adj : n:int -> int array -> t
(** Aut of the graph given as adjacency bitsets
    ({!Chunk.adj_of_mask}). Raises [Invalid_argument] past
    {!Canon.max_order}. *)

val of_graph : Lcp_graph.Graph.t -> t

val order : t -> int
(** Number of graph nodes. *)

val size : t -> int
(** [|Aut(G)|] (always >= 1; the identity is included). *)

val is_trivial : t -> bool
(** The graph is rigid: only the identity automorphism. *)

val perms : t -> int array array
(** Every automorphism as a vertex→vertex permutation, in the
    branch-and-bound's deterministic discovery order. The array and
    its rows are owned by [t]: do not mutate. *)

val orbits : t -> int array
(** [orbits t] maps each node to the smallest node in its orbit under
    the full group — equal entries iff same orbit. *)

val generators : t -> int array list
(** A strong generating set: transversal representatives along the
    stabilizer chain with base [0, 1, ..., n-1]. Empty iff the group
    is trivial. Generates the full group. *)

val lex_constraints : t -> order:int array -> int list array
(** [lex_constraints t ~order] for a backtracking search assigning
    node [order.(i)] at step [i]: [cs.(s)] lists the earlier steps [e]
    such that a labeling can only be lexicographically minimal in its
    Aut-orbit (comparing alphabet-rank sequences along [order]) if
    [rank L(order.(s)) >= rank L(order.(e))]. Checking [cs.(s)] as
    soon as step [s] assigns its node prunes whole subtrees of
    non-minimal labelings and never cuts an orbit minimum. Derived
    from the stabilizer chain along [order] (first-assignment
    symmetry breaking). *)

type prefix
(** The prefix-minimality tests of every non-identity automorphism
    along one search order, merged into one trie (see {!prefix}). *)

val prefix : t -> order:int array -> prefix
(** [prefix t ~order] for a backtracking search assigning node
    [order.(i)] at step [i]. Each non-identity automorphism [p]
    contributes its {e program}: the pairs [(s, e)] in increasing step
    order, restricted to the steps [p] moves, where [e] is the step
    assigned [p]'s image of the node assigned at step [s]. The programs
    are the root-to-leaf paths of the trie; a node's children are
    sorted by activation [max s e]. The trie is one int array, two
    ints per node, with [order] already resolved into the nodes each
    pair compares. It is built from {!perms} by sorting one flat
    [|Aut(G)| * n] scratch array of packed pair keys, so no
    per-automorphism array is allocated. *)

val cuts : prefix -> int array -> int -> bool
(** [cuts p ranks i] with steps [0..i] assigned and [ranks.(v)] the
    alphabet rank of node [v]'s label (entries of unassigned nodes are
    never read): whether some automorphism [p] provably sends every
    completion of the partial labeling to a lexicographically smaller
    one — walking [p]'s program over the pairs whose steps are both
    assigned, all ranks equal so far and then [rank(s) > rank(e)].
    [rank(s) < rank(e)] or an unassigned step ends that walk
    inconclusively. The trie walks every program at once: it descends
    only through pairs whose ranks compare equal, stops a sibling scan
    at the first pair activated after [i], and answers [true] at the
    first pair comparing greater — an existential over the group, so
    the answer does not depend on the order of {!perms}. Cutting never
    loses an orbit minimum, and once [i = n - 1] the answer is exactly
    "the labeling is not minimal in its orbit". Strictly stronger than
    {!lex_constraints} (which keeps only the conditions the stabilizer
    chain makes unconditional). Allocates nothing. *)
