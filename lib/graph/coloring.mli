(** Proper colorings, bipartiteness and odd-cycle witnesses.

    These implement the paper's language [k-col] (Sec. 2.1): a pair
    [(G, x)] is in [k-col] when [x] is a proper k-coloring of [G]. *)

val is_proper : Graph.t -> int array -> bool
(** Is the assignment a proper coloring (no monochromatic edge)?
    Color values are unconstrained integers. *)

val is_proper_k : Graph.t -> k:int -> int array -> bool
(** Proper and every color lies in [0 .. k-1]. *)

val two_color : Graph.t -> int array option
(** A proper 2-coloring with colors {0,1}, or [None] when the graph is
    not bipartite. Each component's BFS root gets color 0. *)

val is_bipartite : Graph.t -> bool

val odd_cycle : Graph.t -> int list option
(** A witness odd cycle (node list, closed implicitly: last connects to
    first) when the graph is not bipartite; [None] otherwise. *)

val odd_closed_walk_check : Graph.t -> int list -> bool
(** Is the node list a closed walk of odd length in the graph? *)

val k_color : Graph.t -> k:int -> int array option
(** A proper k-coloring via backtracking with greedy ordering, or
    [None]. Exact but exponential; intended for small graphs. *)

val is_k_colorable : Graph.t -> k:int -> bool
