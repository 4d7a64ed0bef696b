(** Finite Ramsey machinery and the order-invariance reduction of
    Lemma 6.2 (paper Sec. 6).

    The reduction colors identifier tuples by the decoder's behavior
    ("type") on a fixed finite set of view shapes, finds a monochromatic
    identifier set by exhaustive search (the finite stand-in for
    Lemma 6.1), and produces an order-invariant decoder that first
    remaps the identifiers in its view — order-preservingly — into the
    monochromatic set and then runs the original decoder. *)

open Lcp_local

val arrows : n:int -> s:int -> t:int -> bool
(** The graph-Ramsey arrow [n -> (s, t)]: every red/blue coloring of
    [K_n]'s edges contains a red [K_s] or blue [K_t]. Exhaustive over
    all [2^(n choose 2)] colorings; [n <= 6]. *)

val ramsey_number : s:int -> t:int -> int
(** Least [n] with [n -> (s, t)]; small parameters only (e.g.
    [R(3,3) = 6]). *)

(** {1 The Lemma 6.2 reduction} *)

val monochromatic_ids :
  Decoder.t -> shapes:View.t list -> universe:int list -> size:int -> int list option
(** A set [Y] of [size] identifiers from the universe on which the
    decoder's {e type} is constant: all sorted [t]-subsets of [Y], [t]
    the size of the largest shape, get the same type. The type of a
    sorted tuple records, for each shape, the decoder's verdict after
    reassigning the shape's identifiers order-preservingly from the
    tuple (rank [j] receives the tuple's [j]-th element). Brute force
    over the [size]-subsets in lexicographic order; the first
    monochromatic one is returned. *)

val order_invariant_decoder : Decoder.t -> mono:int list -> Decoder.t
(** The decoder [D'] of Lemma 6.2: remap the view's identifiers
    order-preservingly into [mono] and run [D]. Order-invariant by
    construction on views of size at most [List.length mono]. *)
