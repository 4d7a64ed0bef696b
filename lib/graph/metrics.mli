(** Distances, balls and global metric invariants. *)

val bfs_dist : Graph.t -> int -> int array
(** [bfs_dist g v] maps every node to its distance from [v];
    unreachable nodes get [max_int]. *)

val ball : Graph.t -> int -> int -> int list
(** [ball g v r] is [N^r(v)]: the sorted nodes at distance at most [r]
    from [v] (the paper's closed r-neighborhood). *)

val diameter : Graph.t -> int
(** Max eccentricity; [0] for graphs with fewer than 2 nodes, [max_int]
    when disconnected. *)

val girth : Graph.t -> int option
(** Length of a shortest cycle, [None] for forests. *)

val shortest_path : Graph.t -> int -> int -> int list option
(** A shortest path (as a node list including both endpoints), [None]
    when disconnected. *)

val shortest_path_avoiding : Graph.t -> avoid:(int -> bool) -> int -> int -> int list option
(** Shortest path whose {e interior and endpoints} all satisfy
    [not (avoid v)], except that the source and target are always
    allowed. *)
