open Lcp_graph
open Lcp_local

type t = {
  algo : int Local_algo.t;
  nbhd : Neighborhood.t;
  coloring : int array;
}

let of_coloring (nbhd : Neighborhood.t) coloring =
  if not (Coloring.is_proper nbhd.Neighborhood.graph coloring) then
    invalid_arg "Extractor.of_coloring: not a proper coloring of V(D,n)";
  let key = Neighborhood.key_of_mode nbhd.Neighborhood.mode in
  let table = Hashtbl.create (Neighborhood.order nbhd) in
  Array.iteri
    (fun i v -> Hashtbl.replace table (key v) coloring.(i))
    nbhd.Neighborhood.views;
  let radius = nbhd.Neighborhood.view_radius in
  let run view =
    Option.value ~default:(-1) (Hashtbl.find_opt table (key view))
  in
  let algo =
    Local_algo.make
      ~name:(Printf.sprintf "extractor(%s)" nbhd.Neighborhood.decoder.Decoder.name)
      ~radius run
  in
  { algo; nbhd; coloring }

let of_verdict = function
  | Hiding.Colorable { coloring; nbhd } -> Some (of_coloring nbhd coloring)
  | Hiding.Hiding _ -> None

let extract t inst = Local_algo.run_all t.algo inst

let failure_nodes t inst =
  let colors = extract t inst in
  let g = inst.Instance.graph in
  let bad = Array.make (Graph.order g) false in
  Array.iteri (fun v c -> if c < 0 then bad.(v) <- true) colors;
  Graph.iter_edges
    (fun u v ->
      if colors.(u) = colors.(v) then begin
        bad.(u) <- true;
        bad.(v) <- true
      end)
    g;
  Graph.fold_nodes (fun v acc -> if bad.(v) then v :: acc else acc) g []
  |> List.rev

let extraction_succeeds t inst = failure_nodes t inst = []
