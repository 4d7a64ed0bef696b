(** Brute-force enumeration and isomorphism: the pairwise reference
    that orderly generation ({!Lcp_engine.Sweep.iso_classes}) and the
    canonical-form kernel ({!Lcp_engine.Canon}) are validated against.

    The iterators visit the {e labeled} graphs on nodes [0 .. n-1] in
    ascending edge-mask order (the mask assigns bit [i] to the [i]-th
    pair [(u, v)], [u < v], in lexicographic order), one at a time,
    without materializing the 2^(n choose 2) space. The listings dedup
    that stream pairwise with {!isomorphic}, so they cost time
    quadratic in the class count: keep [n <= 6]. *)

open Lcp_graph

(** {1 Streaming} *)

val iter_graphs : int -> (Graph.t -> unit) -> unit
(** Visit every labeled graph on [n] nodes in ascending mask order. *)

val iter_connected : int -> (Graph.t -> unit) -> unit
(** Like {!iter_graphs}, restricted to connected graphs. *)

(** {1 Isomorphism dedup} *)

val isomorphic : Graph.t -> Graph.t -> bool
(** Backtracking isomorphism test over degree-compatible mappings. *)

val relabel : Graph.t -> int array -> Graph.t
(** [relabel g perm] renames node [v] to [perm.(v)]: an isomorphic
    copy, the input of the invariance checks on canonical forms.
    @raise Invalid_argument unless [perm] is a permutation of
    [0 .. order g - 1]. *)

val up_to_iso : Graph.t list -> Graph.t list
(** One representative per isomorphism class: the first seen, so on
    mask-ordered input the minimal-mask member (order preserved).
    Pairwise {!isomorphic} within invariant buckets. *)

val connected_up_to_iso : int -> Graph.t list
(** Connected graphs on [n] nodes up to isomorphism (minimal-mask
    representatives), deduplicated on the fly over {!iter_connected}:
    peak memory is one representative per class. The same listing as
    [Lcp_engine.Sweep.iso_classes n]. *)

val brute_classes : connected:bool -> int -> Graph.t list
(** One minimal-mask representative per isomorphism class on [n]
    nodes (connected graphs only when [connected]), ascending mask
    order: with [connected], the listing [Lcp_engine.Sweep.iso_classes n]
    returns. *)
