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

    - {!prefix} / {!walk} / {!step}: symmetry breaking for a
      backtracking labeling search — a per-step test that cuts a
      partial labeling only if {e no} completion of it is
      lexicographically minimal in its Aut-orbit, and that is exact on
      complete labelings.
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
    search's discovery order). {!step} and {!stabilizer} depend only
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

type walk
(** One search's walk of a {!prefix} trie, resumed from step to step
    (see {!step}). Mutable; one per search, on one domain. *)

val walk : prefix -> walk
(** A walk with no step taken yet. Allocates about [1.5] times the
    trie. *)

val step : walk -> int array -> int -> bool
(** [step w ranks i], called by a backtracking search after it assigns
    step [i] ([ranks.(v)] is the alphabet rank of node [v]'s label;
    entries of unassigned nodes are never read): whether some
    automorphism [p] provably sends every completion of the partial
    labeling to a lexicographically smaller one. Walking [p]'s program
    over the pairs whose steps are both assigned, the ranks are equal
    so far and then [rank(s) > rank(e)]; [rank(s) < rank(e)] or an
    unassigned step ends that walk inconclusively. The trie walks every
    program at once, an existential over the group, so the answer does
    not depend on the order of {!perms}. Cutting never loses an orbit
    minimum, and a complete labeling is cut at some step iff it is not
    the minimum of its orbit.

    {b Protocol.} The walk follows the search's path: step [i] may be
    taken only when steps [0..i-1] of the current prefix were taken in
    turn and none of them cut, as
    {!Lcp_local.Labeling.iter_backtracking_ranked} does when its
    [prune] returns [true] exactly on a cut: every symbol at a step,
    descending only where the step did not cut, then backtracking.
    Repeating a step (another symbol) or going back to an earlier one
    is always allowed, and step [0] starts the walk afresh. Then the
    answer at step [i] is exactly that of a walk of the whole trie
    from its root: no pair activated before [i] compares differently
    than at step [i-1], where none compared greater, so a cut can only
    come from a pair activated at [i]. [w] keeps the places where the
    walks so far stopped at a pair activated later, bucketed by that
    step, and step [i] scans bucket [i] alone, pushing the places it
    stops at onto a trail that is undone when the search comes back to
    step [i]. A step costs the pairs it activates, not the whole
    compare-equal part of the trie.
    @raise Invalid_argument if step [i - 1] was not taken, or cut, on
    the current path (one int compare); the walk then stays as it
    was. Allocates nothing. *)

val stabilizer : prefix -> int array -> int
(** [stabilizer p ranks] with every node assigned: [|Stab(L)|], the
    number of automorphisms [σ] with [ranks.(σ v) = ranks.(v)] for
    every node [v] — the identity plus the programs of [p] whose every
    pair compares equal, counted by one walk of the trie that descends
    only through compare-equal pairs. The orbit of [L] has
    [size t / stabilizer p ranks] labelings. Allocates nothing. *)
