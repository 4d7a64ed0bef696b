(** Small bit-twiddling helpers shared by the engine's hot loops.

    The engine spends most of its time on adjacency bitsets and edge
    masks, so population counts and set-bit iteration must not loop
    per bit. [popcount] is a 16-bit lookup table applied to the four
    16-bit limbs of an [int], shared by {!Chunk}'s connectivity BFS
    and {!Orderly}'s extension loop. {!Canon}'s kernel keeps its own
    vertex-set table: calls across modules are not inlined in dev
    builds, which compile with [-opaque]. *)

val popcount : int -> int
(** Number of set bits. Constant-time: four probes of a precomputed
    65536-entry table (counts the bits of the value's two's-complement
    representation, so it is total on negative inputs too — engine
    masks are always non-negative). *)

val ntz : int -> int
(** Number of trailing zeros, i.e. the index of the lowest set bit.
    Undefined on [0] (callers always test the mask first). *)

val fold_bits : (int -> 'a -> 'a) -> int -> 'a -> 'a
(** [fold_bits f m acc] folds [f] over the indices of the set bits of
    [m], lowest first. *)
