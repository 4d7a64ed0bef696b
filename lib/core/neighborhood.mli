(** The accepting neighborhood graph [V(D, n)] (paper Sec. 3).

    Nodes are accepting views of the decoder on labeled yes-instances
    (up to the view-equality notion matching the decoder: identified for
    general decoders, anonymous for anonymous ones); edges join
    yes-instance-compatible views — views realized at adjacent nodes of
    one unanimously accepted yes-instance.

    Following the hiding definition (Sec. 2.4), we populate the graph
    from instances on which the decoder accepts {e unanimously} — those
    are exactly the instances the hiding game is played on, and the
    paper's own Figures 3–6 witnesses are of this kind.

    [Lemma 3.1]: the construction is a terminating enumeration; here the
    enumeration domain is supplied explicitly, either as a hand-picked
    family (as in the paper's hiding proofs) or exhaustively via
    {!exhaustive_family}. Any family yields a {e subgraph} of the true
    [V(D, n)], which is sound for hiding verdicts (an odd cycle in a
    subgraph is an odd cycle in the full graph). *)

open Lcp_graph
open Lcp_local

type mode = Identified | Order_invariant | Anonymous

type t = {
  decoder : Decoder.t;
  mode : mode;
  view_radius : int;  (** radius of the views below *)
  views : View.t array;  (** one representative per equivalence class *)
  graph : Graph.t;  (** yes-instance compatibility on view indices *)
  sources : (int * int) list array;
      (** per view, the (instance index, node) pairs it was seen at *)
  loops : int list;
      (** view classes that occur at two {e adjacent} nodes of one
          accepted instance: self-loops of the neighborhood graph. The
          paper allows loops precisely here; a looped view class makes
          the graph non-k-colorable for every k (no extractor can give
          adjacent equal views different colors). *)
}

val key_of_mode : mode -> View.t -> string

val build :
  ?mode:mode ->
  ?yes:(Graph.t -> bool) ->
  ?view_radius:int ->
  Decoder.t ->
  Instance.t list ->
  t
(** Builds [V(D, ·)] from the unanimously-accepted instances of the
    list (others are skipped, as are instances whose graph fails the
    [yes] predicate — only yes-instances of the language contribute;
    the default language is 2-col, i.e. [yes] = bipartiteness).

    [view_radius] (default: the decoder's radius) sets the radius of
    the views forming the graph's nodes. Passing a {e larger} radius
    asks the Lemma 3.2 question against stronger extractors: an
    [r']-round algorithm can extract a coloring iff the radius-[r']
    neighborhood graph is colorable. *)

val order : t -> int
val size : t -> int

val view : t -> int -> View.t

val find : t -> View.t -> int option
(** Index of the class of the given view, if present. *)

val is_k_colorable : t -> k:int -> bool
(** False whenever a self-loop exists, regardless of [k]. *)

val odd_cycle : t -> int list option
(** An odd closed walk of view indices when the graph is not
    2-colorable: a single looped view (length 1) when one exists,
    otherwise an odd cycle. *)

val exhaustive_family :
  Decoder.suite ->
  graphs:Graph.t list ->
  ?ports:[ `Canonical | `All ] ->
  ?ids:[ `Canonical | `Canonical_bound of int | `All of int ] ->
  ?cfg:Lcp_obs.Run_cfg.t ->
  unit ->
  Instance.t list
(** All unanimously-accepted labeled yes-instances over the given
    graphs: bipartite promise-class graphs only, crossed with port
    assignments, identifier assignments ([`All bound] enumerates all
    injective assignments into [1..bound]; [`Canonical_bound b] pins
    the advertised N so views from graphs of different orders stay
    comparable) and {e all} accepted labelings over the suite's
    adversary alphabet. Exponential — tiny graphs only. A [cfg] with
    [jobs > 1] expands the (graph, ports, ids) choices on the
    {!Lcp_engine.Pool} domain pool; no [cfg] means sequential. The
    family and its order are independent of [jobs]. *)

val to_dot : t -> string

val pp_summary : Format.formatter -> t -> unit
