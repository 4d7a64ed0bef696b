(** Plain-text experiment reports shared by the CLI, the benchmarks and
    EXPERIMENTS.md. *)

type row = {
  label : string;
  value : string;  (** measured *)
  expected : string;  (** the paper's claim / expected shape *)
  ok : bool;
}

type t = {
  id : string;  (** experiment id, e.g. "E3" *)
  title : string;
  rows : row list;
}

val row : ?expected:string -> ?ok:bool -> string -> string -> row
(** Defaults: [expected = value] is not assumed; [expected = "-"],
    [ok = true]. *)

val check : string -> bool -> expected:string -> actual:string -> row
(** A row that passes iff the boolean holds. *)

val passed : t -> bool

val pp : Format.formatter -> t -> unit
val pp_all : Format.formatter -> t list -> unit

val to_markdown : t -> string
(** GitHub-flavored table for EXPERIMENTS.md. *)

val summary_line : t -> string

val to_json : t -> Lcp_obs.Json.t
(** [{ "id"; "title"; "passed"; "rows": [{ "label"; "measured";
    "expected"; "ok" }] }]. *)

val battery_schema_version : int

val battery_to_json : t list -> Lcp_obs.Json.t
(** The whole battery as one schema-versioned document:
    [{ "schema_version"; "total"; "passed"; "reports" }] — the payload
    of [lcp experiments --json]. *)
