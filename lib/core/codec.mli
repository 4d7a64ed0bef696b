(** JSON interchange for the library's core structures: persist graphs
    and labeled instances, exchange them with other tools, reload them
    into the CLI. Every encoder round-trips through its decoder (see the
    property tests). *)

open Lcp_graph
open Lcp_local

val graph_to_json : Graph.t -> Lcp_obs.Json.t
val graph_of_json : Lcp_obs.Json.t -> (Graph.t, string) result

val instance_to_json : Instance.t -> Lcp_obs.Json.t
val instance_of_json : Lcp_obs.Json.t -> (Instance.t, string) result

val report_to_json : Report.t -> Lcp_obs.Json.t

val verdicts_to_json : Decoder.t -> Instance.t -> Lcp_obs.Json.t
(** A decoder's per-node verdicts on an instance, with metadata — the
    shape consumed by external dashboards. *)

val save : string -> Lcp_obs.Json.t -> unit
val load : string -> (Lcp_obs.Json.t, string) result
