open Lcp_graph

type verdict =
  | Hiding of { witness : int list; nbhd : Neighborhood.t }
  | Colorable of { coloring : int array; nbhd : Neighborhood.t }

let of_neighborhood ~k nbhd =
  let g = nbhd.Neighborhood.graph in
  match nbhd.Neighborhood.loops with
  | i :: _ ->
      (* a looped view class defeats every extractor, for every k *)
      Hiding { witness = [ i ]; nbhd }
  | [] -> (
  match Coloring.k_color g ~k with
  | Some coloring -> Colorable { coloring; nbhd }
  | None ->
      let witness =
        if k = 2 then
          match Coloring.odd_cycle g with
          | Some c -> c
          | None -> assert false
        else
          (* generic witness: a minimal non-k-colorable subset of views,
             found greedily by deleting nodes that keep it non-colorable *)
          let rec shrink keep =
            let try_drop v =
              let keep' = List.filter (fun w -> w <> v) keep in
              let sub, _ = Graph.induced g keep' in
              if Coloring.is_k_colorable sub ~k then None else Some keep'
            in
            match List.find_map try_drop keep with
            | Some keep' -> shrink keep'
            | None -> keep
          in
          shrink (Graph.nodes g)
      in
      Hiding { witness; nbhd })

let check ?yes ~k dec instances =
  let yes =
    match yes with Some f -> f | None -> fun g -> Coloring.is_k_colorable g ~k
  in
  of_neighborhood ~k (Neighborhood.build ~yes dec instances)

let is_hiding_on ~k dec instances =
  match check ~k dec instances with Hiding _ -> true | Colorable _ -> false
