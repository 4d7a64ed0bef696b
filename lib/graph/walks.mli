(** Walks in plain graphs: the building blocks for the Lemma 5.4 / 5.5
    walk surgeries.

    A walk is a non-empty node list in which consecutive nodes are
    adjacent. A closed walk additionally has its last node adjacent to
    its first (the closing edge is implicit, the first node is not
    repeated at the end). *)

val is_walk : Graph.t -> int list -> bool
val is_closed_walk : Graph.t -> int list -> bool

val is_non_backtracking : Graph.t -> int list -> bool
(** No position of the closed walk has its predecessor equal to its
    successor (indices mod length). Walks of length < 3 are
    backtracking by convention. *)

val non_backtracking_closed_walk :
  Graph.t -> start:int -> len:int -> int list option
(** Search (DFS) for a non-backtracking closed walk of exactly [len]
    edges starting at [start]. *)

val splice : int list -> int -> int list -> int list
(** [splice walk pos insert]: the closed walk obtained by inserting the
    closed walk [insert] (which must start at [List.nth walk pos]) at
    position [pos]. *)
