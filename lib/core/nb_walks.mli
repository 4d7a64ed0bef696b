(** Walks in the accepting neighborhood graph and the Lemma 5.4 / 5.5
    walk surgeries (paper Sec. 5.2).

    A walk of views is {e non-backtracking} when no view's predecessor
    and successor centers carry the same identifier. Non-backtracking is
    necessary for realizability of closed walks; Lemma 5.4 shows it is
    also sufficient (after expansion) on r-forgetful yes-instances, and
    Lemma 5.5 repairs backtracking odd cycles. The constructions here
    operate on concrete instances and lift node walks to view walks. *)

open Lcp_graph
open Lcp_local

val lift : Neighborhood.t -> Instance.t -> int list -> int list option
(** Map a node walk of the instance to view indices of the neighborhood
    graph; [None] if some view is unknown there. *)

val is_non_backtracking_views : View.t list -> bool
(** The Sec. 5.2 definition on a closed walk of views. *)

val edge_expansion : Graph.t -> r:int -> u:int -> v:int -> int list option
(** The Lemma 5.4 closed walk [W_e] for the edge [{u,v}]: start at [u],
    cross to [v], escape along an r-forgetful path, detour through a far
    node [v_mu'] (one at distance [> 2r] from both [u] and [v], so its
    radius-r ball is disjoint from theirs), and return
    non-backtracking. The result is a closed
    non-backtracking walk through [u] and [v]; on a bipartite instance
    it is automatically even. *)

val expand_closed_walk :
  Graph.t -> r:int -> int list -> int list option
(** Apply {!edge_expansion} before every edge of the given closed node
    walk (Lemma 5.4's [W']): the parity is preserved while every
    identifier's occurrences become forgettable. *)

val odd_nb_closed_walk : Graph.t -> max_len:int -> int list option
(** A non-backtracking odd closed node walk, the net effect of
    Lemma 5.5: searches odd lengths [3, 5, ...] up to the bound. Only
    exists in non-bipartite graphs. *)

val repair_backtracking : Graph.t -> int list -> int list option
(** The explicit Lemma 5.5 surgery: given a closed walk with a
    backtracking position, replace the incoming edge by an odd detour
    through a cycle that avoids the offending predecessor. Returns a
    non-backtracking closed walk of the same parity; [None] when the
    graph lacks the required second cycle. *)
