(** The Lemma 4.2 decoder: an anonymous, strong and hiding one-round
    LCP for 2-coloring on even cycles, with constant-size certificates.

    The certificate of a node encodes, for each of its two ports, the
    far-end port of that edge and the edge's color in a proper
    2-{e edge}-coloring of the cycle. An even cycle is 2-colorable iff
    it is 2-edge-colorable, the nodes can verify the edge coloring
    locally, and — unlike the degree-one construction — the node
    coloring is hidden {e everywhere}. *)

open Lcp_local

val decoder : Decoder.t
val prover : Instance.t -> Labeling.t option

val alphabet : string list
(** The 8 well-formed certificates ([q]s in 1..2, [c1 <> c2]) plus the
    junk representative; any malformed certificate is equivalent to junk
    for this decoder, so this alphabet is adversarially exhaustive. *)

val suite : Decoder.suite
