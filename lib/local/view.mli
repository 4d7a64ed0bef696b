(** Radius-r views (paper Sec. 2.2).

    [view_r(G, prt, Id, I)(v)] is the ball [N^r(v)] carrying the graph
    structure of all paths of length at most [r] from [v] — i.e. the
    edges [{a,b}] with [min(dist(v,a), dist(v,b)) <= r - 1] — together
    with the restrictions of the port, identifier and label assignments.
    Note both endpoints' ports of every visible edge are visible, as
    used by the paper's decoders (e.g. Lemma 4.2 verifies far-end
    ports).

    Local node indices are canonical: nodes are sorted by
    [(distance from center, identifier)], so the center is always local
    node [0] and two views of identified instances are equal iff they
    are structurally equal. *)

open Lcp_graph

type t = private {
  radius : int;
  graph : Graph.t;  (** ball graph over local indices *)
  dist : int array;  (** distance from the center *)
  ids : int array;  (** global identifiers *)
  id_bound : int;  (** the N known to all nodes *)
  labels : string array;
  ports : int array array;
      (** [ports.(u).(i)] is the port of [u] on the edge to the [i]-th
          neighbor of [u] in [graph] (ascending order) *)
}

(** {1 Access tracing}

    The sanitizer hook (see [Lcp_analysis]): while a trace is armed in
    the calling domain, every read accessor below records what it
    touched — which field class, which local node, at which distance
    from the center, and (for certificates) how many bits. This is the
    evidence base for machine-checking the locality / invariance /
    certificate-taint contracts a decoder declares. Arming is
    domain-local, so traced evaluations coexist with untraced engine
    work on other domains; untraced code pays one domain-local lookup
    per accessor call. *)

module Trace : sig
  type field =
    | Label  (** a certificate string was read *)
    | Id  (** a global identifier was read *)
    | Port  (** a port number was read *)
    | Structure  (** ball shape: degree, distance, size, fringe test *)

  type event = {
    field : field;
    node : int;  (** local node index in the accessed view *)
    dist : int;  (** that node's distance from the view's center *)
    bits : int;  (** certificate bits (8 per byte) for [Label], else 0 *)
  }

  val record : (unit -> 'a) -> 'a * event list
  (** [record f] runs [f] with recording armed in the calling domain
      and returns its result with the accesses in occurrence order.
      Nests: the enclosing recorder is restored afterwards (it does not
      see the inner trace), also on exceptions. *)
end

(** {1 Extraction} *)

type layout = {
  ball : int array;
      (** the instance nodes of the ball in local order: [ball.(u)] is
          behind local node [u], and [ball.(0)] is the center *)
  ball_dist : int array;
      (** [ball_dist.(u)]: distance of [ball.(u)] from the center *)
  edges : (int * int) list;
      (** the visible edges as local pairs [(a, b)], [a < b], in no
          particular order *)
}
(** A view's label-independent skeleton in instance terms: which
    nodes, in which local order, and which of their edges are visible.
    {!extract} is built on it, so the local order and the visibility
    rule are defined once. *)

val layout : ?scratch:int array -> Instance.t -> r:int -> int -> layout
(** [layout inst ~r v]: the layout of [v]'s radius-[r] view, at a cost
    proportional to the ball. [scratch], an array of [-1]s with one
    slot per instance node, replaces the internal hashtable; it holds
    only [-1]s again on return, so one array serves every node of an
    instance. @raise Invalid_argument if [r < 1]. *)

val extract : Instance.t -> r:int -> int -> t
(** The view of the given node. @raise Invalid_argument if [r < 1]. *)

val extract_all : Instance.t -> r:int -> t array
(** Views of all nodes, indexed by node. *)

(** {1 Center accessors} *)

val center_id : t -> int
val center_label : t -> string
val center_degree : t -> int
(** True degree of the center (all its edges are visible for r >= 1). *)

val center_neighbors : t -> (int * int * int) list
(** [(local_node, my_port, far_port)] triples for the center's incident
    edges, sorted by the center's port. *)

(** {1 General accessors} *)

val size : t -> int
(** Number of nodes in the ball. *)

val id : t -> int -> int
val label : t -> int -> string
val distance : t -> int -> int

val port_of : t -> int -> int -> int
(** [port_of v a b]: port of [a] on the visible edge [{a,b}].
    @raise Not_found when the edge is not visible. *)

val full_degree_known : t -> int -> bool
(** True when all of the node's edges are visible (distance < radius
    guarantees it). *)

val find_by_id : t -> int -> int option
(** Local node carrying the given global identifier. *)

val subview1 : t -> int -> t
(** [subview1 v w]: the radius-1 view of local node [w] as determined
    inside [v]; requires [distance v w < radius v] so that all of [w]'s
    edges are visible. Used by the Sec. 5.1 compatibility notion. *)

val restrict : t -> r:int -> t
(** Shrink a view to a smaller radius: the radius-[r] view of the same
    center is fully determined by any radius-[r' >= r] view.
    @raise Invalid_argument if [r] is larger than the view's radius or
    smaller than 1. *)

val map_labels : t -> (string -> string) -> t
(** Apply a function to every certificate in the view (structure, ports
    and ids unchanged). Used to build decoders by certificate
    transformation, e.g. the tagged-union decoder of Theorem 1.1. *)

val mapi_labels : t -> (int -> string -> string) -> t
(** Like {!map_labels} with the local node index available (e.g. for
    per-node certificate reconstruction). *)

val reidentify : t -> f:(int -> int) -> ?id_bound:int -> unit -> t
(** Apply the injective map [f] to every identifier of the view,
    re-canonicalizing the local node order. Used by the order-invariance
    reduction (Lemma 6.2) and the id-replacement of Lemma 5.2.
    @raise Invalid_argument if [f] is not injective on the view's ids or
    produces ids outside [1 .. id_bound] (default: the old bound, grown
    to fit). *)

(** {1 Equality and canonical keys} *)

val equal : t -> t -> bool
(** Identified equality (ids, labels, ports, structure, radius, bound). *)

val compare : t -> t -> int

val key_identified : t -> string
(** Canonical serialization; equal iff [equal]. *)

val key_order_invariant : t -> string
(** Identifiers replaced by their rank inside the ball: equal keys iff
    the views are order-isomorphic (what an order-invariant verifier
    can distinguish). *)

val key_anonymous : t -> string
(** Identifier-free canonical form via the port-directed BFS relabeling
    from the center (port-preserving rooted isomorphisms are rigid, so
    equal keys iff the views are isomorphic ignoring ids). *)

val to_dot : t -> string
