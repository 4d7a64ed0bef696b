(** Sealed JSON files: one object whose last member, [digest], is the
    MD5 of the compact rendering of every other member, in file order.
    The seal catches edits and corruption, not forgery. Checkpoints and
    class listings are sealed files: both come from outside the process
    that reads them, and a quietly altered one must not load. *)

val check : what:string -> Lcp_obs.Json.t -> (unit, string) result
(** [Ok] when the object's [digest] member seals its other members;
    the error names [what] (["checkpoint"], ["class listing"]). *)

val save : path:string -> (string * Lcp_obs.Json.t) list -> unit
(** Atomic write of [members] followed by their [digest],
    pretty-printed: write
    [path ^ ".tmp"], then rename it over [path], so a kill mid-write
    leaves the previous file intact (the same discipline
    {!Lcp_obs.Sink} uses). *)

val read : ?terminated:bool -> string -> (Lcp_obs.Json.t, string) result
(** Read and parse [path]; I/O and parse errors name it. With
    [terminated] (default [false]), a file that does not end in the
    newline {!save} writes is refused as truncated: cut just before
    that newline, a file still parses and its seal still holds. The
    caller checks the schema, then the seal with {!check}. *)
