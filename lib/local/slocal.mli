(** A minimal SLOCAL(r) simulator (sequential-LOCAL; see the paper's
    Sec. 1 motivation and Akbari et al. for the model).

    Nodes are processed one at a time in a given order; each computes
    its output from its radius-r view {e plus the outputs of already
    processed nodes inside that view}. This is the model in which the
    paper's promise-free-separation program needs certificates whose
    2-coloring cannot be extracted. *)

type 'o t = {
  name : string;
  radius : int;
  step : View.t -> 'o option array -> 'o;
      (** [step view prev]: [prev.(u)] is the output of the view's local
          node [u] if it was already processed *)
}

val execute : 'o t -> Instance.t -> order:int list -> 'o array
(** Process the nodes in the given order (a permutation).
    @raise Invalid_argument otherwise. *)

val execute_canonical : 'o t -> Instance.t -> 'o array
(** Processing order [0, 1, ...]. *)

val greedy_coloring : radius:int -> int t
(** First-fit coloring: the smallest color unused by processed
    neighbors — the canonical SLOCAL(1) algorithm, using at most
    [max degree + 1] colors. *)

val first_fit_k : radius:int -> k:int -> int t
(** First-fit restricted to colors [0..k-1]; outputs [-1] when stuck. *)

val of_local_algo : 'o Local_algo.t -> 'o t
(** A plain local algorithm as a (degenerate, order-oblivious) SLOCAL
    algorithm. *)
