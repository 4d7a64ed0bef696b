(** r-round local algorithms as maps on views (paper Sec. 2.2), plus
    empirical anonymity / order-invariance checkers. *)

type 'o t = {
  name : string;
  radius : int;
  run : View.t -> 'o;
}

val make : name:string -> radius:int -> (View.t -> 'o) -> 'o t

val run_all : 'o t -> Instance.t -> 'o array
(** Outputs of all nodes (each on its own radius-[radius] view). *)

val is_anonymous_on : 'o t -> Instance.t -> trials:int -> Random.State.t -> bool
(** Re-identify the instance with [trials] random id assignments (same
    bound); outputs must be unchanged at every node. A sound refuter,
    not a prover. *)

val is_order_invariant_on :
  'o t -> Instance.t -> trials:int -> Random.State.t -> bool
(** Re-identify with random {e order-preserving} assignments into a
    larger id space; outputs must be unchanged at every node. *)
