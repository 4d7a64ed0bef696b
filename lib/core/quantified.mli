(** Quantified hiding (the paper's Sec. 2.4 future-work question):
    instead of asking whether {e some} node fails to extract, measure
    {e how many} must fail.

    An r-round extractor is an arbitrary map from view classes to colors
    [0..k-1]. Its success fraction on an accepted instance is the share
    of nodes that are not incident to any monochromatic edge under the
    extracted colors. The decoder hides at level [alpha] when every
    extractor leaves a failure fraction of at least [alpha] on some
    instance; equivalently, [1 - alpha] bounds the best worst-case
    success fraction computed here.

    The search is exact (all [k^|V|] colorings) when the space is small
    and falls back to multi-start hill climbing beyond — in which case
    the result is only a {e lower} bound on what extractors can achieve,
    hence an {e upper} bound estimate on the hiding level. *)

open Lcp_local

type result = {
  best : int array;  (** the best extractor found: color per view class *)
  worst_case_success : float;
      (** min over instances of its per-instance success fraction; a
          node whose view is unknown to the neighborhood graph counts
          as a failure *)
  exact : bool;  (** true when the search space was enumerated fully *)
}

val best_extractor : k:int -> Neighborhood.t -> Instance.t list -> result
(** Exhaustive search over the [k^|V|] extractors when there are at
    most [200_000] of them; seeded hill climbing from 20 random
    restarts otherwise. The instance list should be the (unanimously
    accepted) family the neighborhood graph was built from. *)

val hiding_level : result -> float
(** [1 - worst_case_success]: the fraction of nodes the best-known
    extractor must give up on in its worst instance. *)
