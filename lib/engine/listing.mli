(** Class listings: the minimal edge mask of every connected
    isomorphism class on [n] nodes, ascending, with the {!Orderly}
    tallies of the enumeration that produced them — the value
    {!Sweep}'s class cache holds, and the file a coordinator writes
    once so that its shard workers need not enumerate.

    A listing is only built by {!make}, which checks it: the class
    count against the tallies, strictly ascending in-range masks, and
    the accounting gates, the connected class count against A001349(n)
    (connected graphs on [n] unlabeled nodes, n <= 11) and the final
    level's full class count against A000088(n) (all graphs on [n]
    unlabeled nodes), which no listing keeps but every enumeration
    builds.
    {!Sweep}'s enumeration, {!save} and {!load} all go through it, so
    no sweep runs on a listing that fails it.

    On disk a listing is a sealed JSON object ({!Sealed}): schema
    version, [n], [connected] (always [true]), [tallies], [count] and
    [masks]. Not [Marshal]: the file comes from outside the process
    reading it. *)

type t = private {
  n : int;
  tallies : Orderly.tallies;
  masks : int list;  (** minimal edge masks ({!Chunk}), ascending *)
}

exception Mismatch of string
(** A listing that fails {!make}'s checks where no [result] can carry
    it back: {!Sweep}'s own enumeration. *)

val make : n:int -> Orderly.tallies -> int list -> (t, string) result
(** Check and wrap one enumeration's output; the error says which
    check failed. *)

val save : path:string -> t -> unit
(** Atomic write ({!Sealed.save}), overwriting any file at [path]. *)

val load : string -> (t, string) result
(** Read, check the schema and the seal, then {!make}: a missing,
    truncated, edited or inconsistent file, or one whose [connected]
    is [false], is an [Error] that names [path]. *)
