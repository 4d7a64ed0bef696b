(** The Theorem 1.1 decoder: anonymous, strong and hiding one-round LCP
    for 2-coloring on [H = H1 u H2] (graphs of minimum degree one, and
    even cycles), with constant-size certificates.

    Certificates are tagged unions ["1:<degree-one cert>"] or
    ["2:<even-cycle cert>"]; a node requires all certificates in its
    view to carry its own tag, so the accepting subgraph splits into a
    degree-one-certified part and a cycle-certified part with no edges
    in between, and strong soundness is inherited from both halves. *)

val decoder : Decoder.t
val alphabet : string list
val suite : Decoder.suite
