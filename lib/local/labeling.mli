(** Certificate assignments (labelings, paper Sec. 2.2).

    A labeling maps each node to a certificate string. Decoders parse
    certificates themselves; this module only handles assignment-level
    plumbing: constant labelings, finite-alphabet enumeration with
    pruning, and random sampling. *)

open Lcp_graph

type t = string array

val const : Graph.t -> string -> t
val of_list : string list -> t

val max_bits : t -> int
(** Size of the largest certificate, in bits (8 bits per byte). *)

val iter_all : alphabet:string list -> Graph.t -> (t -> unit) -> unit
(** All |alphabet|^n labelings. The array passed to the callback is
    reused; copy if you keep it. *)

val exists_all : alphabet:string list -> Graph.t -> (t -> bool) -> bool
(** Short-circuiting search over all labelings. *)

val iter_backtracking :
  alphabet:string list ->
  Graph.t ->
  prune:(int -> t -> bool) ->
  (t -> unit) ->
  unit
(** Depth-first assignment in node order; after assigning node [v] the
    partial labeling (nodes > v hold ["?"]) is passed to [prune v];
    returning [true] cuts the subtree. Complete labelings go to the
    callback. *)

val iter_backtracking_order :
  alphabet:string list ->
  order:int array ->
  Graph.t ->
  prune:(int -> t -> bool) ->
  (t -> unit) ->
  unit
(** {!iter_backtracking} with an explicit assignment order: step [i]
    assigns node [order.(i)], and [prune] receives the {e step index}
    [i] (nodes [order.(0..i)] are assigned, every other slot holds
    ["?"]). The emitted labeling arrays are still indexed by node, so
    callers see canonical node order regardless of [order]. Used by the
    certificate search to assign ball-completing nodes first, which
    lets coverage pruning fire higher in the tree.
    @raise Invalid_argument if [order] is not a permutation of
    [0 .. order g - 1]. *)

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
(** {!iter_backtracking_order} that also maintains the {!ranks} of the
    assigned symbols: [prune i lab rk] and the callback receive, next
    to the labeling, an array indexed by node whose slot [v] holds the
    rank of [lab.(v)] for every assigned node (other slots are stale).
    Each rank is set once per assignment, so consumers that key on
    symbols never hash a string. Both arrays are reused; copy them to
    keep them. *)

val random : Random.State.t -> alphabet:string list -> Graph.t -> t

val count : alphabet:string list -> Graph.t -> int
(** [|alphabet|^(order g)], saturating at [max_int] instead of silently
    wrapping: a result of [max_int] means "more labelings than an int
    can count". *)
