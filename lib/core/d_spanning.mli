(** Second baseline: bipartiteness certification with spanning-tree
    distance certificates.

    Certificate of [v]: [color : root_id : dist], where [root_id] is the
    identifier of a per-component root and [dist] the hop distance to
    it. Checks: proper 2-coloring against all neighbors, neighborhood
    agreement on the root, the root itself at distance 0 carrying its
    own id, every non-root having a strictly closer neighbor, and
    distance differences of exactly one across tree-consistent colors
    (colors alternate with parity of [dist]).

    The classic [O(log n)]-bit scheme: strongly sound, non-anonymous and
    — like {!D_trivial} — maximally non-hiding, since the 2-coloring is
    written into every certificate. *)

val decoder : Decoder.t
val suite : Decoder.suite
