(** The exhaustive mask scan: the reference class listing that
    orderly generation ({!Lcp_engine.Sweep.iso_classes}) is validated
    against.

    Every one of the [2^(n choose 2)] edge masks on [n] nodes (slots in
    {!Lcp_engine.Chunk}'s lexicographic pair order) is decoded,
    filtered for connectivity and canonicalized; the smallest mask of
    each class is kept. That is the listing orderly generation returns
    — the minimal-mask member of each class, ascending — at a cost set
    by the labeled space rather than the class count: [2^21] masks at
    [n = 7], out of reach at [n = 8]. *)

open Lcp_graph

(** {1 Streaming the mask space}

    The space is never materialized: it is split into contiguous mask
    ranges ({e chunks}) that workers consume independently. *)

type t = { n : int; lo : int; hi : int }
(** Masks [lo <= mask < hi] of the [n]-node space. *)

val space : int -> int
(** [2^(n choose 2)].
    @raise Invalid_argument when the space exceeds [2^30] masks. *)

val plan : ?chunk_bits:int -> int -> t list
(** Split the [n]-node mask space into chunks of at most
    [2^chunk_bits] masks (default [12]). Always at least one chunk;
    chunks cover the space exactly, in ascending mask order. *)

val iter : t -> (int -> unit) -> unit
(** Apply a function to every mask of the chunk, ascending. *)

(** {1 Listing} *)

val iso_classes :
  ?cfg:Lcp_obs.Run_cfg.t -> ?connected:bool -> int -> Graph.t list
(** One representative (the one with the smallest edge mask) per
    isomorphism class of graphs on [n] nodes ([connected] defaults to
    [true]), in ascending mask order, scanned in chunks on [cfg.jobs]
    domains; the listing does not depend on [jobs]. Nothing is cached.
    Reports into [cfg] the counters {!Lcp_engine.Sweep.iso_classes}
    reports, counted the scan's way: [candidates_generated] (masks
    scanned), [connected] (labeled graphs passing the connectivity
    filter), [classes] and [dedup_hits].
    @raise Invalid_argument past [n = 8] (see {!space}). *)
