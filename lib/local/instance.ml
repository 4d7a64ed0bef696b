open Lcp_graph

type t = {
  graph : Graph.t;
  ports : Port.t;
  ids : Ident.t;
  labels : Labeling.t;
}

let is_valid t =
  Port.is_valid t.graph t.ports
  && Ident.is_valid t.graph t.ids
  && Array.length t.labels = Graph.order t.graph

let make ?ports ?ids ?labels graph =
  let ports = Option.value ~default:(Port.canonical graph) ports in
  let ids = Option.value ~default:(Ident.canonical graph) ids in
  let labels = Option.value ~default:(Labeling.const graph "") labels in
  let t = { graph; ports; ids; labels } in
  if not (is_valid t) then invalid_arg "Instance.make: inconsistent components";
  t

let with_labels t labels =
  if Array.length labels <> Graph.order t.graph then
    invalid_arg "Instance.with_labels: wrong length";
  { t with labels }

let with_ids t ids =
  if not (Ident.is_valid t.graph ids) then invalid_arg "Instance.with_ids: invalid";
  { t with ids }

let with_ports t ports =
  if not (Port.is_valid t.graph ports) then invalid_arg "Instance.with_ports: invalid";
  { t with ports }

let order t = Graph.order t.graph

let random rng graph =
  let n = Graph.order graph in
  make graph
    ~ports:(Port.random rng graph)
    ~ids:(Ident.random rng ~bound:(max 1 (n * n)) graph)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@,labels: %a@]" Graph.pp t.graph Ident.pp t.ids
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf s -> Format.fprintf ppf "%S" s))
    (Array.to_list t.labels)
