(** Set-bit iteration shared by the engine's hot loops.

    The engine spends most of its time on adjacency bitsets and edge
    masks, so set-bit iteration must not loop per bit: each step finds
    the lowest set bit's index as the population count below it, a
    16-bit lookup table applied to the four 16-bit limbs of an [int].
    {!Chunk}'s connectivity BFS and {!Orderly}'s extension loop use
    it. {!Canon}'s kernel keeps its own vertex-set table: calls across
    modules are not inlined in dev builds, which compile with
    [-opaque]. *)

val fold_bits : (int -> 'a -> 'a) -> int -> 'a -> 'a
(** [fold_bits f m acc] folds [f] over the indices of the set bits of
    [m], lowest first. *)
