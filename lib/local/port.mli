(** Port assignments (paper Sec. 2.2).

    A port assignment gives every node [v] a bijection between its
    incident edges and [1 .. d(v)]. We represent it as, per node, the
    array of neighbors in port order: [t.(v).(p - 1)] is the neighbor
    reached through port [p] of [v]. *)

open Lcp_graph

type t = int array array

val canonical : Graph.t -> t
(** Ports in increasing-neighbor order. *)

val random : Random.State.t -> Graph.t -> t
(** Uniformly random port order at every node. *)

val is_valid : Graph.t -> t -> bool
(** Does [t] assign each node exactly its neighbor set, injectively? *)

val port_of : t -> int -> int -> int
(** [port_of t v w] is the port of [v] on the edge [{v,w}] (in
    [1 .. d(v)]).
    @raise Not_found if [w] is not a neighbor of [v]. *)

val neighbor_at : t -> int -> int -> int
(** [neighbor_at t v p] is the neighbor of [v] behind port [p]
    (1-based).
    @raise Invalid_argument if [p] is out of range. *)

val enumerate : Graph.t -> t list
(** All port assignments of the graph (product over nodes of d(v)!
    permutations); small graphs only. *)
