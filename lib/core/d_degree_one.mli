(** The Lemma 4.1 decoder: an anonymous, strong and hiding one-round
    LCP for 2-coloring on graphs with minimum degree 1, using
    constant-size certificates over [{bot, top, 0, 1}].

    The prover hides the 2-coloring at a chosen degree-1 node: that node
    gets [bot], its unique neighbor gets [top], everyone else gets their
    color. A node cannot tell whether it would be colored 0 or 1 from a
    [bot]/[top] neighborhood, and the hidden pair can never sit on a
    cycle, which gives strong soundness. *)

open Lcp_local

val decoder : Decoder.t
val prover : Instance.t -> Labeling.t option
val alphabet : string list
(** The four certificate symbols plus the junk representative. *)

val suite : Decoder.suite
