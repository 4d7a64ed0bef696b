(** Identifier assignments (paper Sec. 2.2).

    An identifier assignment is an injective map from nodes into
    [1 .. bound]; [bound = N] is polynomial in [n] and known to every
    node. *)

open Lcp_graph

type t = { ids : int array; bound : int }

val canonical : ?bound:int -> Graph.t -> t
(** Node [v] gets id [v + 1]; default bound is [n]. *)

val of_array : ?bound:int -> int array -> t
(** Validates injectivity and range (ids must lie in [1 .. bound];
    default bound is the max id).
    @raise Invalid_argument when invalid. *)

val random : Random.State.t -> bound:int -> Graph.t -> t
(** Uniform injective assignment into [1 .. bound], in O(n) time and
    memory for any [bound].
    @raise Invalid_argument if [bound] is below the graph's order. *)

val id : t -> int -> int
val node_of_id : t -> int -> int option
(** Inverse lookup. *)

val is_valid : Graph.t -> t -> bool

val order_preserving_remap : t -> target:int list -> t
(** Re-identify using the sorted [target] id list (which must have
    exactly [n] distinct values): the node with the k-th smallest id
    receives the k-th smallest target. The relative order of ids is
    preserved — the transformation order-invariant algorithms cannot
    observe. The new bound is the max target. *)

val enumerate : bound:int -> Graph.t -> t list
(** All injective assignments into [1 .. bound]; tiny graphs only. *)

val pp : Format.formatter -> t -> unit
