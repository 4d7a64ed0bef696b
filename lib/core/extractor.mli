(** The extraction decoder [D'] from the proof of Lemma 3.2.

    Given a proper k-coloring [c] of the neighborhood graph, every node
    looks its own view up in [V(D, n)] and outputs [c(view)]. On any
    unanimously accepted instance whose views all appear in the
    neighborhood graph, the outputs form a proper k-coloring — which is
    precisely why such a decoder refutes hiding. *)

open Lcp_local

type t = {
  algo : int Local_algo.t;
  nbhd : Neighborhood.t;
  coloring : int array;
}

val of_verdict : Hiding.verdict -> t option
(** [Some] exactly on [Colorable] verdicts.
    @raise Invalid_argument if a [Colorable] verdict's coloring is not
    proper on its neighborhood graph. *)

val extract : t -> Instance.t -> int array
(** Per-node colors; a node whose view is unknown to the neighborhood
    graph outputs [-1] (extraction fails there). *)

val extraction_succeeds : t -> Instance.t -> bool
(** Did extraction produce a proper coloring with no [-1]s? *)
