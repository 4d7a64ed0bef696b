(** Generators for the graph families used throughout the paper. *)

val path : int -> Graph.t
(** [path n]: the simple path on [n] nodes [0 - 1 - ... - n-1]. *)

val cycle : int -> Graph.t
(** [cycle n]: the cycle [0 - 1 - ... - n-1 - 0]; requires [n >= 3]. *)

val star : int -> Graph.t
(** [star k]: node 0 joined to [k] leaves (order [k+1]). *)

val complete : int -> Graph.t
(** [complete n]: the clique K_n. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: the rows x cols king-free grid; node [(i,j)] is
    [i * cols + j]. *)

val torus : int -> int -> Graph.t
(** [torus rows cols]: grid with wraparound; requires both >= 3. *)

val hypercube : int -> Graph.t
(** [hypercube d]: the d-dimensional hypercube on [2^d] nodes.
    @raise Invalid_argument if [d < 0] or [2^d] exceeds [max_int]. *)

val binary_tree : int -> Graph.t
(** [binary_tree depth]: complete binary tree of the given depth
    (depth 0 = single node) on [2^(depth+1) - 1] nodes.
    @raise Invalid_argument if [depth < 0] or the node count exceeds
    [max_int]. *)

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

val friendship : int -> Graph.t
(** [friendship k]: k triangles sharing the single node 0. *)

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

val random_connected : Random.State.t -> int -> float -> Graph.t
(** Random tree plus G(n,p) noise (a quadratic pair scan): connected
    by construction. For large sparse graphs use
    {!Random_graphs.of_model}. *)

val of_spec : string -> (Graph.t, string) result
(** Parse the textual graph-spec grammar shared by the [lcp] CLI and
    the serve protocol — [FAMILY[:ARGS]], e.g. ["cycle:5"],
    ["grid:3x4"], ["petersen"]. The error carries a human-readable
    message (for an unknown family, every accepted form). A spec is
    sized arithmetically before anything is built, and one asking for
    more than [2^22] nodes or [2^24] edges is an error. *)
