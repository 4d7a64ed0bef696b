(** Simple finite undirected graphs.

    Nodes are the integers [0 .. n-1]. Graphs are immutable once built;
    all "mutating" operations return fresh graphs. Parallel edges are
    disallowed; self-loops are disallowed (the paper allows loops in
    principle but never uses them, and a loop makes a graph trivially
    non-2-colorable, so we reject them at construction).

    Internally a graph is a flat CSR adjacency: an [offsets] array of
    [n + 1] row starts into one flat neighbor array, built once at
    construction. Each row is strictly ascending, which is exactly the
    order the historical sorted-neighbor-list representation exposed:
    {b port order = CSR row order = ascending neighbor id}. [View],
    [Port.canonical] and the lint machinery rely on that contract.
    Traversal goes through the allocation-free [iter_neighbors] /
    [fold_neighbors] family. *)

type t
(** An undirected graph. *)

(** {1 Construction} *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] nodes.
    @raise Invalid_argument if [n < 0]. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph on [n] nodes with the given edge
    list. Duplicate edges (in either orientation) are collapsed. The
    build is O(n + m) (counting sort, no per-node list sorting).
    @raise Invalid_argument on out-of-range endpoints or self-loops. *)

val of_bitsets : int array -> t
(** [of_bitsets rows] builds the graph on [Array.length rows] nodes
    whose node [v] is adjacent to [w] iff bit [w] of [rows.(v)] is set,
    writing the CSR straight from the rows. Equal to [of_edges] on the
    same edge set.
    @raise Invalid_argument on a row with bits at or past the order, a
    self-loop, an asymmetric pair of rows, or an order of
    [Sys.int_size] or more. *)

(** Incremental O(n + m) construction without intermediate edge lists;
    this is what the large random-graph generators feed. Arcs accumulate
    in growable int arrays and the CSR is built once by [graph]. *)
module Builder : sig
  type graph := t

  type t
  (** A mutable edge accumulator for a graph of fixed order. *)

  val create : ?size_hint:int -> int -> t
  (** [create n] starts a builder for a graph on [n] nodes;
      [size_hint] pre-sizes the arc buffer (in edges).
      @raise Invalid_argument if [n < 0]. *)

  val add_edge : t -> int -> int -> unit
  (** Record one undirected edge; duplicates are collapsed at [graph]
      time. @raise Invalid_argument on out-of-range endpoints or
      self-loops. *)

  val graph : t -> graph
  (** Freeze into a graph; the builder stays usable afterwards. *)
end

val add_edge : t -> int -> int -> t
(** [add_edge g u v] is [g] with the edge [{u,v}] added (no-op if the
    edge is already present).
    @raise Invalid_argument on out-of-range endpoints or [u = v]. *)

val disjoint_union : t -> t -> t
(** [disjoint_union g h] places [h] next to [g]; nodes of [h] are
    shifted by [order g]. O(n + m): rows are concatenated directly. *)

val double_cover : t -> t
(** Bipartite double cover [G x K2] (see {!Builders.double_cover}):
    row [u] is [N(u) + order g] and row [u + order g] is [N(u)], both
    already ascending, so the CSR is written straight from [g]'s. *)

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph of [g] induced by [nodes]
    (duplicates ignored, order preserved), together with the array
    mapping new indices to the original node ids. *)

(** {1 Observation}

    The [iter]/[fold]/[exists]/[nth] family traverses the flat CSR rows
    without allocating; prefer it everywhere outside tests and
    small-graph conveniences. Neighbors are always visited in ascending
    id order — the port order. *)

val order : t -> int
(** Number of nodes. *)

val size : t -> int
(** Number of edges. O(1). *)

val degree : t -> int -> int
(** O(1): offset delta. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** [iter_neighbors f g v] applies [f] to each neighbor of [v] in
    ascending order. Allocation-free. *)

val iteri_neighbors : (int -> int -> unit) -> t -> int -> unit
(** [iteri_neighbors f g v] applies [f i w] for the [i]-th neighbor [w]
    of [v] ([i] counts from 0 in port order). *)

val fold_neighbors : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** [fold_neighbors f g v init] folds [f] over the neighbors of [v] in
    ascending order. *)

val exists_neighbor : (int -> bool) -> t -> int -> bool
(** [exists_neighbor p g v] is [true] iff some neighbor of [v]
    satisfies [p]; short-circuits. *)

val for_all_neighbors : (int -> bool) -> t -> int -> bool
(** [for_all_neighbors p g v] is [true] iff every neighbor of [v]
    satisfies [p]; short-circuits. *)

val nth_neighbor : t -> int -> int -> int
(** [nth_neighbor g v i] is the [i]-th neighbor of [v] in port order,
    [0 <= i < degree g v]. O(1).
    @raise Invalid_argument if [i] is out of range. *)

val neighbor_rank : t -> int -> int -> int option
(** [neighbor_rank g v w] is [Some i] iff [w] is the [i]-th neighbor of
    [v] (so [nth_neighbor g v i = w]); [None] if the edge is absent.
    O(log degree) by binary search on the sorted row. *)

val mem_edge : t -> int -> int -> bool
(** O(log degree). *)

val neighbors_array : t -> int -> int array
(** Neighbors of [v] in port order as a fresh array (one [Array.sub]
    of the flat row; no per-element allocation). *)

val edges : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v], lexicographically
    sorted. *)

val nodes : t -> int list
(** [0 .. n-1]. *)

val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a
val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (int -> int -> unit) -> t -> unit

val min_degree : t -> int
(** Minimum degree; [0] for the empty (0-node) graph. *)

val max_degree : t -> int
(** Maximum degree; [0] for the empty graph. *)

val degree_counts : t -> (int * int) list
(** [(d, count)] pairs, sorted by degree. *)

(** {1 Structure} *)

val is_connected : t -> bool
(** True for the 0- and 1-node graphs. *)

val components : t -> int list list
(** Connected components as sorted node lists, sorted by minimum
    element. *)

val is_cycle : t -> bool
(** Is [g] a single cycle (connected, 2-regular, n >= 3)? *)

val is_path_graph : t -> bool
(** Is [g] a single simple path on >= 1 nodes? *)

val is_tree : t -> bool
(** Connected and acyclic. *)

val equal : t -> t -> bool
(** Structural equality (same node count and edge set). O(n + m):
    the CSR form is canonical, so this is array equality. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:string -> ?label:(int -> string) -> t -> string
(** GraphViz rendering; [label] overrides the per-node label. *)
