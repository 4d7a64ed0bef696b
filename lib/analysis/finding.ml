type kind =
  | Radius_violation
  | Id_taint
  | Id_variance
  | Port_variance
  | Nondeterminism

type severity = Error | Warning | Info

type t = {
  kind : kind;
  severity : severity;
  decoder : string;
  detail : string;
}

let kind_to_string = function
  | Radius_violation -> "radius-violation"
  | Id_taint -> "id-taint"
  | Id_variance -> "id-variance"
  | Port_variance -> "port-variance"
  | Nondeterminism -> "nondeterminism"

let kind_of_string = function
  | "radius-violation" -> Some Radius_violation
  | "id-taint" -> Some Id_taint
  | "id-variance" -> Some Id_variance
  | "port-variance" -> Some Port_variance
  | "nondeterminism" -> Some Nondeterminism
  | _ -> None

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let make ?(severity = Error) kind ~decoder detail =
  { kind; severity; decoder; detail }

let is_violation f = f.severity = Error

let to_json f =
  Lcp_obs.Json.Obj
    [
      ("kind", Lcp_obs.Json.String (kind_to_string f.kind));
      ("severity", Lcp_obs.Json.String (severity_to_string f.severity));
      ("decoder", Lcp_obs.Json.String f.decoder);
      ("detail", Lcp_obs.Json.String f.detail);
    ]
