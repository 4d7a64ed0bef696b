(** r-round binary decoders and the LCP bundle (paper Sec. 2.2–2.5).

    A decoder is the distributed verifier: a computable map from
    radius-r views to accept/reject. A {!suite} bundles a decoder with
    everything needed to exercise it as a full LCP: the promise class,
    an honest prover, an adversary alphabet for exhaustive soundness
    checking, and the certificate-size accounting. *)

open Lcp_graph
open Lcp_local

type t = {
  name : string;
  radius : int;
  anonymous : bool;  (** claimed; tests verify it empirically *)
  port_invariant : bool;
      (** claimed: verdicts never depend on port numbers. Verified
          empirically by the sanitizer like [anonymous]. A decoder that
          is both anonymous and port-invariant has Aut-invariant
          verdicts, which licenses the automorphism-orbit search
          pruning ({!Lcp_engine.Auto}); defaults to [false] — reading
          ports is the norm in this library. *)
  accepts : View.t -> bool;
}

val make :
  ?port_invariant:bool ->
  name:string ->
  radius:int ->
  anonymous:bool ->
  (View.t -> bool) ->
  t

val run : t -> Instance.t -> bool array
(** Per-node verdicts. *)

val accepts_all : t -> Instance.t -> bool

val accepted_subgraph : t -> Instance.t -> Graph.t * int array
(** Subgraph induced by the accepting nodes (plus the map back to
    original node ids) — the object of strong soundness. *)

val as_local_algo : t -> bool Local_algo.t

(** {1 Contracts}

    The machine-checkable claims a decoder makes about itself, verified
    empirically by the [Lcp_analysis] sanitizer. Every theorem about a
    decoder is conditional on these: the order-invariance reduction
    (Lemma 6.2) needs verdicts independent of concrete identifiers, and
    r-round locality bounds are vacuous if the implementation keys on
    data deeper than its declared radius. *)

type contract = {
  declared_radius : int;
      (** the locality claim: evaluations must never read data at
          distance greater than this from the center. Usually equal to
          {!field-radius} (the extraction radius); a decoder may request
          a generous view yet claim — and be held to — a tighter
          effective radius. *)
  declared_anonymous : bool;
      (** verdicts must not depend on identifiers: no id reads, and
          node-wise verdicts invariant under injective re-identification
          (with certificates held fixed) *)
  declared_port_invariant : bool;
      (** node-wise verdicts invariant under re-drawing the port
          assignment (with certificates held fixed) *)
}

val contract : t -> contract
(** The decoder's declared contract: its extraction radius and its
    [anonymous] and [port_invariant] flags. *)

(** {1 LCP bundles} *)

type suite = {
  dec : t;
  promise : Graph.t -> bool;
      (** the class H of the promise problem (yes-instances) *)
  prover : Instance.t -> Labeling.t option;
      (** honest prover: certificates for a yes-instance (the instance's
          own labels are ignored); [None] if the graph is outside the
          promise class or not 2-colorable *)
  adversary_alphabet : Instance.t -> string list;
      (** finite certificate alphabet that is exhaustive up to
          node-level equivalence for this decoder on this instance
          (malformed certificates are represented by one junk symbol) *)
  cert_bits : Instance.t -> int;
      (** information-theoretic size (bits) of the largest honest
          certificate on this instance *)
}

val certify : suite -> Instance.t -> Instance.t option
(** Instance re-labeled by the honest prover. *)

val junk : string
(** The representative malformed certificate, rejected by every decoder
    in this library. *)
