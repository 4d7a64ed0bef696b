open Lcp_graph
open Lcp_local

type mode = Identified | Order_invariant | Anonymous

type t = {
  decoder : Decoder.t;
  mode : mode;
  view_radius : int;
  views : View.t array;
  graph : Graph.t;
  sources : (int * int) list array;
  loops : int list;
}

let key_of_mode = function
  | Identified -> View.key_identified
  | Order_invariant -> View.key_order_invariant
  | Anonymous -> View.key_anonymous

let default_mode (dec : Decoder.t) =
  if dec.Decoder.anonymous then Anonymous else Identified

let build ?mode ?(yes = Coloring.is_bipartite) ?view_radius (dec : Decoder.t)
    instances =
  let mode = Option.value ~default:(default_mode dec) mode in
  let view_radius = Option.value ~default:dec.Decoder.radius view_radius in
  let key = key_of_mode mode in
  let index_of_key : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let views = ref [] in
  let sources_tbl : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  let count = ref 0 in
  let edge_set : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let loop_set : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let intern v src =
    let k = key v in
    match Hashtbl.find_opt index_of_key k with
    | Some i ->
        let l = Hashtbl.find sources_tbl i in
        l := src :: !l;
        i
    | None ->
        let i = !count in
        incr count;
        Hashtbl.replace index_of_key k i;
        views := (i, v) :: !views;
        Hashtbl.replace sources_tbl i (ref [ src ]);
        i
  in
  List.iteri
    (fun inst_idx inst ->
      if yes inst.Instance.graph && Decoder.accepts_all dec inst then begin
        let all = View.extract_all inst ~r:view_radius in
        let indices = Array.mapi (fun v mu -> intern mu (inst_idx, v)) all in
        Graph.iter_edges
          (fun u w ->
            let a = indices.(u) and b = indices.(w) in
            if a <> b then
              let e = (min a b, max a b) in
              Hashtbl.replace edge_set e ()
            else Hashtbl.replace loop_set a ())
          inst.Instance.graph
      end)
    instances;
  let m = !count in
  let views_arr =
    if m = 0 then [||]
    else begin
      let arr = Array.make m (snd (List.hd !views)) in
      List.iter (fun (i, v) -> arr.(i) <- v) !views;
      arr
    end
  in
  let sources_arr = Array.make m [] in
  Hashtbl.iter (fun i l -> sources_arr.(i) <- List.rev !l) sources_tbl;
  let graph = Graph.of_edges m (Hashtbl.fold (fun e () acc -> e :: acc) edge_set []) in
  let loops =
    List.sort Stdlib.compare (Hashtbl.fold (fun i () acc -> i :: acc) loop_set [])
  in
  { decoder = dec; mode; view_radius; views = views_arr; graph;
    sources = sources_arr; loops }

let order t = Array.length t.views
let size t = Graph.size t.graph
let view t i = t.views.(i)

let find t v =
  let key = key_of_mode t.mode in
  let k = key v in
  let m = order t in
  let rec go i =
    if i = m then None else if key t.views.(i) = k then Some i else go (i + 1)
  in
  go 0

let is_k_colorable t ~k = t.loops = [] && Coloring.is_k_colorable t.graph ~k

let odd_cycle t =
  match t.loops with
  | i :: _ -> Some [ i ] (* a loop is an odd closed walk of length 1 *)
  | [] -> Coloring.odd_cycle t.graph

let two_coloring t = if t.loops = [] then Coloring.two_color t.graph else None

let exhaustive_family (suite : Decoder.suite) ~graphs ?(ports = `Canonical)
    ?(ids = `Canonical) ?cfg () =
  let jobs = match cfg with Some c -> c.Lcp_obs.Run_cfg.jobs | None -> 1 in
  let dec = suite.Decoder.dec in
  (* one work unit per (graph, ports, ids) choice: coarse enough to
     amortize domain scheduling, fine enough to balance the `All
     spaces. Results are concatenated in choice order, so the family is
     identical for every [jobs]. *)
  let units =
    List.concat_map
      (fun g ->
        if Coloring.is_bipartite g && suite.Decoder.promise g then
          let port_choices =
            match ports with
            | `Canonical -> [ Port.canonical g ]
            | `All -> Port.enumerate g
          in
          let id_choices =
            match ids with
            | `Canonical -> [ Ident.canonical g ]
            | `Canonical_bound b -> [ Ident.canonical ~bound:b g ]
            | `All bound -> Ident.enumerate ~bound g
          in
          List.concat_map
            (fun prt -> List.map (fun idents -> (g, prt, idents)) id_choices)
            port_choices
        else [])
      graphs
  in
  let expand (g, prt, idents) =
    let base = Instance.make g ~ports:prt ~ids:idents in
    let alphabet = suite.Decoder.adversary_alphabet base in
    let acc = ref [] in
    Prover.iter_accepted dec ~alphabet base (fun lab ->
        acc := Instance.with_labels base lab :: !acc);
    List.rev !acc
  in
  if jobs <= 1 then List.concat_map expand units
  else
    let metrics = Option.map (fun c -> c.Lcp_obs.Run_cfg.metrics) cfg in
    List.concat
      (Array.to_list
         (Lcp_engine.Pool.map ?metrics ~jobs expand (Array.of_list units)))

let to_dot t =
  Graph.to_dot t.graph ~name:"NeighborhoodGraph" ~label:(fun i ->
      let v = t.views.(i) in
      Printf.sprintf "id=%d l=%s" (View.center_id v) (View.center_label v))

let pp_summary ppf t =
  Format.fprintf ppf "V(%s): %d views, %d edges, %d loops, bipartite=%b"
    t.decoder.Decoder.name (order t) (size t) (List.length t.loops)
    (is_k_colorable t ~k:2)
