(** Sanitizer findings: one record per detected contract breach.

    Kinds are the stable vocabulary of the [lcp lint] report (their
    string forms appear in the JSON schema); severities classify how a
    finding gates CI — any [Error] fails the lint run. *)

type kind =
  | Radius_violation
      (** data read at a depth exceeding the contract's declared radius *)
  | Id_taint
      (** contract claims anonymity but the trace shows identifier reads *)
  | Id_variance
      (** verdicts changed under an injective re-identification *)
  | Port_variance
      (** verdicts changed under a re-drawn port assignment *)
  | Nondeterminism
      (** verdicts differed between repeated or [jobs=1] vs [jobs=N] runs *)

type severity = Error | Warning | Info

type t = {
  kind : kind;
  severity : severity;
  decoder : string;  (** registry key of the offending decoder *)
  detail : string;  (** human-readable evidence (instance, node, sample) *)
}

val make : ?severity:severity -> kind -> decoder:string -> string -> t
(** [severity] defaults to [Error] — every current kind is a breach of a
    declared contract. *)

val is_violation : t -> bool
(** [true] iff the severity is [Error]. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val severity_to_string : severity -> string
val to_json : t -> Lcp_obs.Json.t
