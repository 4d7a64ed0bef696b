(** Generators for the graph families used throughout the paper. *)

val path : int -> Graph.t
(** [path n]: the simple path on [n] nodes [0 - 1 - ... - n-1]. *)

val cycle : int -> Graph.t
(** [cycle n]: the cycle [0 - 1 - ... - n-1 - 0]; requires [n >= 3]. *)

val star : int -> Graph.t
(** [star k]: node 0 joined to [k] leaves (order [k+1]). *)

val complete : int -> Graph.t
(** [complete n]: the clique K_n. *)

val complete_bipartite : int -> int -> Graph.t
(** [complete_bipartite a b]: K_{a,b}; part one is [0..a-1]. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: the rows x cols king-free grid; node [(i,j)] is
    [i * cols + j]. *)

val torus : int -> int -> Graph.t
(** [torus rows cols]: grid with wraparound; requires both >= 3. *)

val hypercube : int -> Graph.t
(** [hypercube d]: the d-dimensional hypercube on [2^d] nodes. *)

val binary_tree : int -> Graph.t
(** [binary_tree depth]: complete binary tree of the given depth
    (depth 0 = single node). *)

val caterpillar : int -> int -> Graph.t
(** [caterpillar spine legs]: a path of [spine] nodes, each with [legs]
    pendant leaves. *)

val watermelon : int list -> Graph.t
(** [watermelon lengths]: the watermelon graph (Sec. 7.2) on two
    endpoints joined by disjoint paths of the given lengths (edge
    counts); each length must be >= 2. Endpoint v1 is node 0,
    endpoint v2 is node 1; internal path nodes follow. *)

val theta : int -> int -> int -> Graph.t
(** [theta a b c]: the theta graph = watermelon with three paths. *)

val book : int -> Graph.t
(** [book k]: k triangles sharing a common edge (0,1). *)

val friendship : int -> Graph.t
(** [friendship k]: k triangles sharing the single node 0. *)

val barbell : int -> Graph.t
(** [barbell k]: two K_k cliques joined by a single edge. *)

val petersen : unit -> Graph.t
(** The Petersen graph (3-regular, girth 5, not bipartite). *)

val pendant : Graph.t -> int -> Graph.t
(** [pendant g v]: [g] with a fresh degree-1 node attached to [v]
    (the new node has index [order g]). Puts the result in the paper's
    class H1 (min degree 1) when [g] had min degree >= 1. *)

val double_cover : Graph.t -> Graph.t
(** Bipartite double cover [G x K2] on [2 * order g] nodes: node
    [(v, side)] is [v + side * order g], and every edge [{u,v}] lifts
    to [{u0,v1}] and [{v0,u1}]. Always bipartite; connected iff [g] is
    connected and non-bipartite. This is how the sampled workload
    derives a yes-instance for the 2-coloring decoders from an
    arbitrary random graph. O(n + m): {!Graph.double_cover} writes the
    CSR rows directly. *)

val random_gnp : Random.State.t -> int -> float -> Graph.t
(** Erdos-Renyi G(n, p). Quadratic pair scan; for large sparse
    instances use {!Random_graphs.gnp} (skip sampling, O(n + m)). *)

val random_bipartite : Random.State.t -> int -> int -> float -> Graph.t
(** Random bipartite graph with parts of the given sizes; each cross
    edge present independently with probability [p]. *)

val random_tree : Random.State.t -> int -> Graph.t
(** Uniform random labeled tree (random attachment). *)

val random_connected : Random.State.t -> int -> float -> Graph.t
(** Random tree plus G(n,p) noise: connected by construction. *)

val of_spec : string -> (Graph.t, string) result
(** Parse the textual graph-spec grammar shared by the [lcp] CLI and
    the serve protocol — [FAMILY[:ARGS]], e.g. ["cycle:5"],
    ["grid:3x4"], ["petersen"]; see {!spec_syntax} for the full
    listing. The error carries a human-readable message. *)

val spec_syntax : string
(** One-line summary of every accepted spec form, for usage errors. *)
