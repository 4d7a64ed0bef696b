(** A round/size trade-off decoder: one certificate {e bit} per node,
    two verification rounds, on even cycles.

    E17 shows no 1-bit port-oblivious one-round decoder is a complete,
    strong and hiding LCP on even cycles (and Lemma 4.2's construction
    spends 6 bits). Spending one more {e round} instead of more bits:
    each node publishes only the color of the edge behind its own
    port 1; a radius-2 verifier collects the pinned colors in its
    window, adds the alternation constraints (a node's two incident
    edges differ), and accepts iff the local system is satisfiable.

    This realizes on our framework the certificate-size/verification-
    rounds trade-off theme of the related work the paper cites
    (Fischer–Oshman–Shamir; Bousquet–Feuilloley–Zeitoun's
    [Omega(log k / d)] d-round bound). Its properties (completeness,
    exhaustive soundness and strong soundness on small rings, hiding)
    are measured in experiment E20. *)

val decoder : Decoder.t
val alphabet : string list
val suite : Decoder.suite
