(** The k-coloring generalization of Lemma 4.1 (the paper's Sec. 1.3
    notes that the upper-bound techniques extend to general k): an
    anonymous, strong and hiding one-round LCP for [k-col] on graphs of
    minimum degree 1, with certificates of [O(log k)] bits.

    The prover reveals a proper k-coloring everywhere except at a chosen
    leaf ([bot]) and its unique neighbor ([top]). The [top] node checks
    that its colored neighbors use at most [k - 1] distinct colors — the
    condition that keeps the accepting subgraph k-colorable. At [k = 2]
    this coincides with {!D_degree_one} (a "<= 1 distinct colors" check
    is monochromaticity) and is hiding.

    For [k >= 3], completeness, strong soundness and anonymity
    generalize verbatim, but hiding does {e not} follow from the leaf
    trick: the Lemma 3.2 extractor may re-color all nodes freely, and on
    the small-instance families we can enumerate, the accepting
    neighborhood graph stays k-colorable — experiment E16 exhibits the
    resulting working extractor. Whether any strong and hiding LCP for
    k-col with k >= 3 exists on this class is exactly the kind of
    question the paper leaves open. *)

val decoder : k:int -> Decoder.t
val alphabet : k:int -> string list
val suite : k:int -> Decoder.suite
