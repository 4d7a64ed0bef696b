(** Certificate assignments (labelings, paper Sec. 2.2).

    A labeling maps each node to a certificate string. Decoders parse
    certificates themselves; this module only handles assignment-level
    plumbing: constant labelings, finite-alphabet enumeration with
    pruning, and random sampling. *)

open Lcp_graph

type t = string array

val const : Graph.t -> string -> t
val max_bits : t -> int
(** Size of the largest certificate, in bits (8 bits per byte). *)

val iter_all : alphabet:string list -> Graph.t -> (t -> unit) -> unit
(** All |alphabet|^n labelings. The array passed to the callback is
    reused; copy if you keep it. *)

val ranks : string list -> (string, int) Hashtbl.t
(** Each symbol's rank in an alphabet: its index among the alphabet's
    distinct symbols in first-occurrence order. Rank order is alphabet
    order, so comparing ranks compares the search's lex order. *)

val iter_backtracking_ranked :
  alphabet:string list ->
  order:int array ->
  Graph.t ->
  prune:(int -> t -> int array -> bool) ->
  (t -> int array -> unit) ->
  unit
(** Depth-first assignment in an explicit order: step [i] assigns node
    [order.(i)], and after each assignment [prune i lab rk] sees the
    partial labeling (nodes [order.(0..i)] are assigned, every other
    slot holds ["?"]); returning [true] cuts the subtree. Complete
    labelings go to the callback. The labeling is indexed by node, so
    callers see canonical node order regardless of [order]. The
    certificate search assigns ball-completing nodes first, which lets
    coverage pruning fire higher in the tree.

    Next to the labeling, [prune] and the callback receive the {!ranks}
    of the assigned symbols: an array indexed by node whose slot [v]
    holds the rank of [lab.(v)] for every assigned node (other slots
    are stale). Each rank is set once per assignment, so consumers that
    key on symbols never hash a string. Both arrays are reused; copy
    them to keep them.
    @raise Invalid_argument if [order] is not a permutation of
    [0 .. order g - 1]. *)

val random : Random.State.t -> alphabet:string list -> Graph.t -> t

val count : alphabet:string list -> Graph.t -> int
(** [|alphabet|^(order g)], saturating at [max_int] instead of silently
    wrapping: a result of [max_int] means "more labelings than an int
    can count". *)
