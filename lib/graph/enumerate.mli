(** Exhaustive enumeration of small graphs.

    The soundness theorems quantify over {e every} graph; on small
    orders we can check them literally. All functions here enumerate
    {e labeled} graphs on nodes [0 .. n-1], in ascending edge-mask
    order (the mask assigns bit [i] to the [i]-th pair [(u, v)],
    [u < v], in lexicographic order).

    The streaming iterators are the only whole-space API: they visit
    the 2^(n choose 2) labeled graphs one at a time without
    materializing the list, which is the only shape that survives past
    [n = 5]. (The historical [all_graphs] / [connected_graphs] list
    builders are gone — fold over {!iter_graphs} / {!iter_connected}
    instead.) For whole-space sweeps with isomorphism dedup,
    parallelism and caching, use [Lcp_engine.Sweep], which reproduces
    these orders and representative choices exactly. *)

(** {1 Streaming (primary)} *)

val iter_graphs : int -> (Graph.t -> unit) -> unit
(** Visit every labeled graph on [n] nodes in ascending mask order,
    without materializing the list. *)

val iter_connected : int -> (Graph.t -> unit) -> unit
(** Like {!iter_graphs}, restricted to connected graphs. *)

val count_graphs : int -> int
(** [2^(n choose 2)], for sanity checks. *)

(** {1 Isomorphism dedup (brute force)} *)

val up_to_iso : Graph.t list -> Graph.t list
(** One representative per isomorphism class: the first seen, so on
    mask-ordered input the minimal-mask member (order preserved).
    Pairwise brute force over invariant buckets — quadratic in the
    class count; [Lcp_engine.Canon] does the same dedup via canonical
    hashing in linear time. *)

val connected_up_to_iso : int -> Graph.t list
(** Connected graphs on [n] nodes up to isomorphism (minimal-mask
    representatives), deduplicated on the fly over {!iter_connected} —
    peak memory is one representative per class, not the labeled
    space. Brute force — keep [n <= 6]; for larger orders use
    [Lcp_engine.Sweep.iso_classes], which returns the identical
    listing, cached and in parallel. *)

val non_bipartite : Graph.t list -> Graph.t list
val bipartite : Graph.t list -> Graph.t list

val brute_classes : connected:bool -> int -> Graph.t list
(** One minimal-mask representative per isomorphism class on [n]
    nodes (connected graphs only when [connected]), ascending mask
    order, by brute-force dedup over the labeled space. Exponential —
    keep [n <= 6]; [Lcp_engine.Sweep.iso_classes] returns the
    identical listing. Exposed (like {!connected_up_to_iso}) as the
    independent oracle the engine's enumerators are cross-validated
    against. *)
