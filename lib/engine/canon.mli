(** Exact canonical forms for small graphs.

    Each graph is mapped once to a {e canonical mask}: the minimum
    edge mask over all relabelings consistent with an
    iterative-refinement (1-WL) partition of the nodes. Two graphs are
    isomorphic iff their canonical masks (and orders) agree, so dedup
    is a single hash-table probe, independent of the number of
    classes.

    The refinement partition is isomorphism-invariant (colors are
    re-ranked by integer signature each round, counting neighbors per
    color as the popcount of a row against the color's vertex set),
    so minimizing only over partition-respecting relabelings is exact.
    Colors start as degrees and keep their order, so the highest cell,
    which takes the top labels, holds maximum-degree vertices.

    Every function below runs the same branch-and-bound kernel. It
    assigns labels from [n-1] downward, each label drawing a vertex
    from its cell (the refined partition for {!canonical_mask}, one
    cell of all vertices otherwise), and keeps a label-space row per
    unplaced vertex so that the edge bits a placement decides are one
    shift of that row. A partial permutation is abandoned as soon as
    those bits exceed the incumbent best on the same slots, which
    collapses the [Π |cell|!] permutation budget to a handful of
    explored branches on all but highly regular graphs. The kernel
    works in per-domain scratch ([Domain.DLS]) and allocates nothing
    but the witnesses it returns, so it is safe to call from pool
    domains; a systhread that finds its domain's scratch in use gets
    a fresh one.

    All functions require order [<= 11] (the 55-slot edge mask plus
    the 4 order bits of {!key} must fit an OCaml [int]) and raise
    [Invalid_argument] beyond it. *)

open Lcp_graph

val max_order : int
(** [11]: largest order whose edge mask (55 bits) plus {!key}'s 4
    order bits fits an OCaml [int]. *)

val canonical_mask : n:int -> int array -> int
(** [canonical_mask ~n adj] over adjacency bitsets
    (see {!Chunk.adj_of_mask}). *)

val min_mask : ?init:int -> n:int -> int array -> int
(** [min_mask ~n adj] is the exact minimum edge mask over {e all}
    [n!] relabelings — the smallest edge mask of any member of the
    graph's isomorphism class, i.e. the representative a full
    ascending mask scan would keep. Same branch-and-bound as
    {!canonical_mask} but over the trivial one-cell partition; [init]
    seeds the incumbent with a known member's mask (e.g. the
    canonical mask) to tighten pruning. Unlike {!canonical_mask} it
    does not depend on the refinement's cell order, so it is the
    stable representative. *)

val min_witnesses : n:int -> int array -> int * int array list
(** [min_witnesses ~n adj] is {!min_mask} together with {e every}
    label→vertex bijection achieving it. Relabeling by any two
    witnesses yields the same minimal graph, so [p ∘ q⁻¹] is an
    automorphism for every witness pair and the list is exactly
    [Aut(G) ∘ q] for any fixed witness [q]: the automorphism group
    falls out of the same branch-and-bound that computes the canonical
    form (harvested by {!Auto}). Implemented as the kernel's
    minimization followed by a collecting pass with the incumbent
    pinned — the tie-keeping [<=] prune guarantees every min-achieving
    leaf is visited. The list has [|Aut(G)|] entries, in the
    branch-and-bound's deterministic discovery order (labels from
    [n-1] down, vertices ascending at each label). *)

val key_adj : n:int -> int array -> int
(** The canonical mask with the order packed into the low 4 bits —
    equal iff the graphs are isomorphic. (Replaces the historical
    ["n:mask"] string keys: an int compares and hashes without
    allocating.) *)

val key : Graph.t -> int

val canonical_graph : Graph.t -> Graph.t
(** The canonical representative of the graph's isomorphism class. *)
