(** The hiding property and its characterization (paper Sec. 2.4 and
    Lemma 3.2).

    [Lemma 3.2]: an r-round LCP [D] for k-coloring is hiding iff the
    accepting neighborhood graph [V(D, n)] is {e not} k-colorable for
    some [n]. Both directions are constructive here:

    - If the neighborhood graph built from an instance family is not
      k-colorable, the odd-cycle (k = 2) or non-colorability witness
      certifies hiding — soundly, because the family graph is a subgraph
      of the true [V(D, n)].
    - If it is k-colorable {e and} the family is exhaustive for the
      sizes of interest, the proof's extraction decoder [D'] is built
      explicitly (see {!Extractor}) and can be run on instances. *)

open Lcp_local

type verdict =
  | Hiding of { witness : int list; nbhd : Neighborhood.t }
      (** [witness] is a non-k-colorable certificate: for k = 2, an odd
          cycle of view indices in the neighborhood graph *)
  | Colorable of { coloring : int array; nbhd : Neighborhood.t }
      (** a proper k-coloring of the (possibly partial) neighborhood
          graph: no hiding evidence in this family; conclusive
          non-hiding when the family was exhaustive *)

val check :
  ?yes:(Lcp_graph.Graph.t -> bool) ->
  k:int ->
  Decoder.t ->
  Instance.t list ->
  verdict
(** [yes] is the decoder's language (which yes-instances feed the
    neighborhood graph); it defaults to [k]-colorability, but when
    checking whether a K-coloring is hidden by an LCP for k-col with
    K > k (Sec. 1.3), pass the decoder's own language here. *)

val of_neighborhood : k:int -> Neighborhood.t -> verdict

val is_hiding_on : k:int -> Decoder.t -> Instance.t list -> bool
(** [true] exactly when {!check} returns [Hiding]. *)
