open Lcp_graph
open Lcp_local

type t = {
  name : string;
  radius : int;
  anonymous : bool;
  port_invariant : bool;
  accepts : View.t -> bool;
}

let make ?(port_invariant = false) ~name ~radius ~anonymous accepts =
  { name; radius; anonymous; port_invariant; accepts }

let run t inst = Array.map t.accepts (View.extract_all inst ~r:t.radius)

let accepts_all t inst = Array.for_all (fun b -> b) (run t inst)

let accepting_nodes t inst =
  let verdicts = run t inst in
  Array.to_list (Array.mapi (fun v ok -> (v, ok)) verdicts)
  |> List.filter_map (fun (v, ok) -> if ok then Some v else None)

let accepted_subgraph t inst =
  Graph.induced inst.Instance.graph (accepting_nodes t inst)

let as_local_algo t =
  Local_algo.make ~name:t.name ~radius:t.radius t.accepts

type contract = {
  declared_radius : int;
  declared_anonymous : bool;
  declared_port_invariant : bool;
}

let contract t =
  {
    declared_radius = t.radius;
    declared_anonymous = t.anonymous;
    declared_port_invariant = t.port_invariant;
  }

type suite = {
  dec : t;
  promise : Graph.t -> bool;
  prover : Instance.t -> Labeling.t option;
  adversary_alphabet : Instance.t -> string list;
  cert_bits : Instance.t -> int;
}

let certify suite inst =
  Option.map (Instance.with_labels inst) (suite.prover inst)

let junk = "junk"
