(** Automorphism groups of small graphs, harvested from {!Canon}.

    {!Canon.witnesses} returns every relabeling over the refined (1-WL)
    cells that achieves the canonical mask; composing each witness
    with a fixed witness's inverse turns that list into the full
    automorphism group [Aut(G)] as vertex permutations. Every
    automorphism maps each refinement cell onto itself, so searching
    only cell-respecting relabelings loses none of them, and the
    search visits [Π |cell|!] relabelings instead of [n!]. This module
    packages the group together with the one symmetry cut both
    quotiented searches use (the certificate search and exhaustive
    strong soundness):

    - {!prefix} / {!cuts}: symmetry breaking for a backtracking
      labeling search — a per-step test that cuts a partial labeling
      only if {e no} completion of it is lexicographically minimal in
      its Aut-orbit, and that is exact on complete labelings.
      Restricting a search to orbit minima is sound for any decoder
      whose per-node verdict is invariant under the graph's
      automorphisms (anonymous {e and} port-invariant decoders: the
      verdict depends only on the labeled isomorphism type of the
      view), because acceptance of [L] and of [L∘σ] coincide and the
      lexicographically first accepted labeling is automatically
      minimal in its own orbit;
    - {!stabilizer}: how many automorphisms fix a complete labeling,
      so that an orbit minimum can stand for its whole orbit, of size
      [size / stabilizer];
    - {!generators}: a small (strong) generating set, which
      {!Orderly} acts with on the parent's masks.

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
(** Every automorphism as a vertex→vertex permutation, each exactly
    once, in a deterministic but unspecified order (the refined
    search's discovery order). {!cuts} and {!stabilizer} depend only
    on the group as a set; which transversal representatives
    {!generators} returns follows this order, the group they generate
    does not. The array and its rows are owned by [t]: do not
    mutate. *)

val generators : t -> int array list
(** A strong generating set: transversal representatives along the
    stabilizer chain with base [0, 1, ..., n-1]. Empty iff the group
    is trivial. Generates the full group. *)

type prefix
(** The prefix-minimality tests of every non-identity automorphism
    along one search order, merged into one trie (see {!prefix}). *)

val prefix : t -> order:int array -> prefix
(** [prefix t ~order] for a backtracking search assigning node
    [order.(i)] at step [i]. Each non-identity automorphism [p]
    contributes its {e program}: the pairs [(s, e)] in increasing step
    order, restricted to the steps [p] moves, where [e] is the step
    assigned [p]'s image of the node assigned at step [s]. The programs
    are root-to-node paths of the trie, each ending on a node marked
    as a program's last pair; a node's children are sorted by
    activation [max s e]. The trie is one int array, two
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
    "the labeling is not minimal in its orbit". Allocates nothing. *)

val stabilizer : prefix -> int array -> int
(** [stabilizer p ranks] with every node assigned: [|Stab(L)|], the
    number of automorphisms [σ] with [ranks.(σ v) = ranks.(v)] for
    every node [v] — the identity plus the programs of [p] whose every
    pair compares equal, counted by one walk of the trie that descends
    only through compare-equal pairs. The orbit of [L] has
    [size t / stabilizer p ranks] labelings. Allocates nothing. *)
