(** Labeled configured graphs: the tuples [(G, prt, Id, l)] the paper
    calls labeled instances (Sec. 3). *)

open Lcp_graph

type t = {
  graph : Graph.t;
  ports : Port.t;
  ids : Ident.t;
  labels : Labeling.t;
}

val make :
  ?ports:Port.t -> ?ids:Ident.t -> ?labels:Labeling.t -> Graph.t -> t
(** Defaults: canonical ports, canonical ids (bound = n), empty-string
    labels. Validates all components.
    @raise Invalid_argument on inconsistent components. *)

val with_labels : t -> Labeling.t -> t
val with_ids : t -> Ident.t -> t
val with_ports : t -> Port.t -> t

val order : t -> int

val random : Random.State.t -> Graph.t -> t
(** Random ports and ids (bound [n^2], covering the paper's poly(n)
    regime), empty labels. *)

val pp : Format.formatter -> t -> unit
