(** Realizability of subgraphs of the accepting neighborhood graph
    (paper Sec. 5.1) and the [G_bad] gluing construction (Lemma 5.1).

    A subgraph [H] of [V(D,n)] is realizable when for every identifier
    [i] occurring in its views there is one view [mu_i] centered at [i]
    with which every occurrence of [i] across [H] is compatible; gluing
    the [mu_i] along identifiers then yields a single instance [G_bad]
    containing an isomorphic copy of [H] whose nodes all accept — the
    counterexample scheme behind Theorem 1.5. *)

open Lcp_local

type subgraph = {
  views : View.t array;
  edges : (int * int) list;  (** on view indices *)
}

val of_neighborhood : Neighborhood.t -> int list -> subgraph
(** Induced sub-structure of the neighborhood graph on the given view
    indices (e.g. an odd cycle returned by {!Hiding.check}). *)

val compatible : View.t -> int -> View.t -> bool
(** [compatible mu1 u mu2]: is node [u] of [mu1] compatible with [mu2]
    (Sec. 5.1): same identifier as [mu2]'s center, and every interior
    node of [mu1] shares its radius-1 view with any interior node of
    [mu2] carrying the same identifier. *)

type assignment = (int * View.t) list
(** Chosen [mu_i] per identifier. *)

val realizable : ?pool:View.t list -> subgraph -> assignment option
(** Find a witness assignment: for identifiers that are centers of [H]'s
    views the (necessarily unique) centered view of [H] is used; other
    identifiers draw candidates from [pool] and from [H] itself. [None]
    when some identifier has no universally compatible centered view. *)

type realization = {
  instance : Instance.t;
  node_of_id : (int * int) list;  (** identifier -> node of [G_bad] *)
  warnings : string list;  (** e.g. port renumberings at fringe nodes *)
}

val realize : assignment -> (realization, string) result
(** The Lemma 5.1 gluing. Fails when the views disagree on labels,
    ports or adjacency of a shared identifier. *)

val centers_accepted : Decoder.t -> subgraph -> realization -> bool
(** Do all nodes of [G_bad] carrying a center identifier of [H]
    accept? This is the conclusion of Lemma 5.1. *)

val lemma_5_1 :
  Decoder.t -> ?pool:View.t list -> subgraph -> (realization, string) result
(** End-to-end: check realizability, glue, and verify acceptance of the
    embedded copy of [H]. *)
