(** The decoder registry: every shipped LCP suite under its CLI key,
    bundled with its declared {!Decoder.contract}.

    One list feeds everything that enumerates decoders — the [lcp]
    front-end's suite lookup, the [Lcp_analysis] sanitizer sweep, and
    any future tooling — so a new decoder registered here is
    automatically lint-gated and CLI-reachable. *)

type entry = {
  key : string;  (** CLI name, e.g. ["degree-one"] *)
  suite : Decoder.suite;
  contract : Decoder.contract;  (** the claims the sanitizer enforces *)
}

val all : entry list
(** Every shipped decoder suite, in CLI listing order. *)

val keys : string list

val find : string -> entry option
