(** Orderly generation of isomorphism classes by canonical
    augmentation (McKay-style).

    The mask-scan enumerator visits all [2^(n choose 2)] edge masks
    and canonicalizes each one — 2,097,152 masks for the 853 connected
    classes on 7 nodes, an infeasible 268M on 8. This generator builds
    the classes {e directly}, level by level: every canonical [k]-node
    graph is extended by one new vertex with each of the [2^k]
    neighborhood bitmasks, and a child survives only if it passes the
    canonicity test — deleting the top-labeled vertex of its canonical
    form must give back exactly the parent it was generated from.

    That {e canonical-deletion} test makes the parent of every class
    unique (it is a function of the child's canonical form alone), so:

    - the generator emits exactly one representative per isomorphism
      class — completeness because every graph arises from {e some}
      vertex deletion, uniqueness because only the canonical deletion
      is accepted;
    - accepted sets of different parents are disjoint, so the parallel
      merge is a plain concatenation — deterministic in [jobs] by
      construction;
    - total work is proportional to [classes × 2^k] candidates
      (11,290 candidates for all of n ≤ 7; 144,922 for n = 8) instead
      of the [2^(n choose 2)] mask space.

    Two filters cut the canonicalizations per candidate without
    changing any output or tally:

    - {e orbit representatives}: masks in one orbit of [Aut(parent)]
      (from {!Auto.generators}, merged by a union-find) give
      isomorphic children, so only each orbit's minimum is
      canonicalized; the rest are counted as dedup hits, which keeps
      [dedup_hits] at [2^k] minus the distinct child classes per
      parent;
    - {e degree filter}: the top-labeled vertex of a canonical form
      has maximum degree (the refinement keeps degree order), so the
      canonical deletion can give back the parent's edge count only
      when the new vertex's degree is the child's maximum degree; any
      other child is rejected before the deletion test.

    At n = 8 they cut child canonicalizations from 144,922 to 85,022
    and deletion tests from 84,978 to 19,900.

    Intermediate levels necessarily include disconnected classes (a
    connected graph's canonical parent may be disconnected); the
    connectivity filter runs on the final level only, where it is a
    class property. *)

type tallies = {
  candidates : int;
      (** extension candidates (parent, neighborhood-bitmask pairs)
          across all levels, canonicalized or not *)
  dedup_hits : int;
      (** candidates folded into an already-generated canonical form
          of the same parent, orbit members included *)
  classes_all : int;  (** classes at the final level, before the filter *)
  connected_classes : int;  (** connected classes at the final level *)
  classes : int;  (** classes returned (after the [connected] filter) *)
}

val max_order : int
(** Largest supported order (the {!Canon} edge-mask bound). *)

val generate :
  ?jobs:int ->
  ?metrics:Lcp_obs.Metrics.t ->
  connected:bool ->
  int ->
  int list * tallies
(** [generate ~connected n] returns the minimal edge mask of every
    isomorphism class on [n] nodes (restricted to connected classes
    when [connected]), in ascending mask order — bit-identical to the
    listing the exhaustive mask scan keeps, at a fraction of the work.
    Each level's parents, and then the final level's classes (one
    {!Canon.min_mask} each), fan out over a {!Pool} of [jobs] domains
    (default 1); results and tallies are independent of [jobs].
    @raise Invalid_argument when [n] exceeds {!max_order}. *)
