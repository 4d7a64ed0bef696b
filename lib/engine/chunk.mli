(** The edge-mask codec for graphs on at most {!Canon.max_order}
    nodes.

    A graph on [n] nodes is an integer edge mask: bit [i] set = edge
    slot [i] present, slots in lexicographic [(u, v)], [u < v] order
    (the same order as [Lcp_oracle.Enumerate.iter_graphs]). Masks
    convert to and from {!Graph.t} and to a compact adjacency-bitset
    form that {!Canon}, {!Auto} and {!Orderly} work on without building
    a graph. *)

open Lcp_graph

val slots : int -> int
(** [n choose 2]. *)

(** {1 Mask decoding}

    Adjacency bitsets ([adj.(u)] has bit [v] set iff [{u,v}] is an
    edge) avoid building a {!Graph.t} for the candidates that are
    filtered out. *)

val adj_of_mask : int -> int -> int array
(** [adj_of_mask n mask]. *)

val adj_of_graph : Graph.t -> int array

val wide_mask_of_graph : Graph.t -> int
(** Inverse of {!graph_of_mask}: valid as long as the slot count fits
    a native int (n <= 11 — the {!Canon.max_order} regime). Class keys
    for sharded sweeps are built on this.
    @raise Invalid_argument when the slot count exceeds the int
    width. *)

val graph_of_mask : int -> int -> Graph.t
(** [graph_of_mask n mask] builds the full graph (use only on the few
    masks that survive filtering). *)

val is_connected_adj : int array -> bool
(** Connectivity by bitset BFS; [true] on orders 0 and 1. *)
