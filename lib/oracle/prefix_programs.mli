(** The per-automorphism prefix-minimality scan: the reference that
    {!Lcp_engine.Auto.prefix}'s trie is validated against.

    Each non-identity automorphism compiles to its own program and a
    search step walks every program in turn, with no sharing between
    programs: obviously the definition, and linear in [|Aut(G)|] per
    step (K8: 40,319 programs). *)

type t = (int * int) array array

val make : Lcp_engine.Auto.t -> order:int array -> t
(** One program per non-identity automorphism [p]: the pairs [(s, e)]
    in increasing step order, restricted to the steps [p] moves, where
    [e] is the step assigned [p]'s image of the node assigned at step
    [s]. Sorted by activation step [max s e] of the first pair, ties in
    {!Lcp_engine.Auto.perms} order. *)

val cuts : t -> order:int array -> int array -> int -> bool
(** [cuts progs ~order ranks i]: the contract of
    {!Lcp_engine.Auto.cuts}, decided by walking each program whose
    activation step is at most [i], one after another. *)
