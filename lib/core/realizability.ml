open Lcp_graph
open Lcp_local

type subgraph = { views : View.t array; edges : (int * int) list }

let of_neighborhood (nbhd : Neighborhood.t) indices =
  let views = Array.of_list (List.map (Neighborhood.view nbhd) indices) in
  let pos = Hashtbl.create (List.length indices) in
  List.iteri (fun p i -> Hashtbl.replace pos i p) indices;
  let edges =
    List.filter_map
      (fun (a, b) ->
        match (Hashtbl.find_opt pos a, Hashtbl.find_opt pos b) with
        | Some x, Some y -> Some (x, y)
        | _ -> None)
      (Graph.edges nbhd.Neighborhood.graph)
  in
  { views; edges }

let interior mu u = View.distance mu u < mu.View.radius

let compatible mu1 u mu2 =
  View.id mu1 u = View.center_id mu2
  && begin
       let m1 = View.size mu1 in
       let rec go w1 =
         if w1 = m1 then true
         else if not (interior mu1 w1) then go (w1 + 1)
         else
           match View.find_by_id mu2 (View.id mu1 w1) with
           | Some w2 when interior mu2 w2 ->
               View.equal (View.subview1 mu1 w1) (View.subview1 mu2 w2)
               && go (w1 + 1)
           | Some _ | None -> go (w1 + 1)
       in
       go 0
     end

let ids_of h =
  Array.to_list h.views
  |> List.concat_map (fun v -> Array.to_list v.View.ids)
  |> List.sort_uniq Stdlib.compare

let occurrences h i =
  let acc = ref [] in
  Array.iteri
    (fun p v -> if View.find_by_id v i <> None then acc := p :: !acc)
    h.views;
  List.rev !acc

type assignment = (int * View.t) list

let realizable ?(pool = []) h =
  let center_views = Array.to_list h.views in
  let candidates_for i =
    (* views centered at id i: those of H take precedence (and must be
       unique when present), then the external pool *)
    let centered vs = List.filter (fun v -> View.center_id v = i) vs in
    let in_h = List.sort_uniq View.compare (centered center_views) in
    match in_h with
    | [ v ] -> [ v ]
    | [] -> List.sort_uniq View.compare (centered pool)
    | _ :: _ :: _ -> [] (* two distinct centered views on the same id *)
  in
  let choose i =
    let occs = occurrences h i in
    let works cand =
      List.for_all
        (fun p ->
          let mu = h.views.(p) in
          match View.find_by_id mu i with
          | Some u -> compatible mu u cand
          | None -> true)
        occs
    in
    List.find_opt works (candidates_for i)
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | i :: rest -> (
        match choose i with
        | Some v -> go ((i, v) :: acc) rest
        | None -> None)
  in
  go [] (ids_of h)

type realization = {
  instance : Instance.t;
  node_of_id : (int * int) list;
  warnings : string list;
}

let realize (assignment : assignment) =
  let warnings = ref [] in
  (* collect, across every view, the facts about each identifier *)
  let label_of : (int, string) Hashtbl.t = Hashtbl.create 32 in
  let port_of : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let edge_set : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let conflict = ref None in
  let record_label i l =
    match Hashtbl.find_opt label_of i with
    | Some l' when l' <> l ->
        conflict := Some (Printf.sprintf "label conflict at id %d (%S vs %S)" i l' l)
    | Some _ -> ()
    | None -> Hashtbl.replace label_of i l
  in
  let record_port i j p =
    match Hashtbl.find_opt port_of (i, j) with
    | Some p' when p' <> p ->
        conflict :=
          Some (Printf.sprintf "port conflict at id %d toward %d (%d vs %d)" i j p' p)
    | Some _ -> ()
    | None -> Hashtbl.replace port_of (i, j) p
  in
  let assigned_ids = List.map fst assignment in
  List.iter
    (fun (i, mu) ->
      if View.center_id mu <> i then
        conflict := Some (Printf.sprintf "view for id %d is centered elsewhere" i);
      let g = mu.View.graph in
      Graph.iter_edges
        (fun a b ->
          let ia = View.id mu a and ib = View.id mu b in
          Hashtbl.replace edge_set (min ia ib, max ia ib) ();
          record_port ia ib (View.port_of mu a b);
          record_port ib ia (View.port_of mu b a))
        g;
      for u = 0 to View.size mu - 1 do
        (* the label of an id is authoritative in its own centered view;
           other views must agree when they claim one *)
        record_label (View.id mu u) (View.label mu u)
      done)
    assignment;
  match !conflict with
  | Some msg -> Error msg
  | None -> (
      let all_ids =
        Hashtbl.fold (fun i _ acc -> i :: acc) label_of []
        |> List.sort_uniq Stdlib.compare
      in
      let n = List.length all_ids in
      let node_of = Hashtbl.create n in
      List.iteri (fun v i -> Hashtbl.replace node_of i v) all_ids;
      let node i = Hashtbl.find node_of i in
      let edges =
        Hashtbl.fold (fun (i, j) () acc -> (node i, node j) :: acc) edge_set []
      in
      let graph = Graph.of_edges n edges in
      (* assemble ports; where the recorded numbers do not form a legal
         1..d(v) assignment (fringe nodes whose edges were truncated),
         compress them order-preservingly and warn *)
      let ports =
        Array.init n (fun v ->
            let i = List.nth all_ids v in
            let recorded =
              List.rev
                (Graph.fold_neighbors
                   (fun w acc ->
                     let j = List.nth all_ids w in
                     ( Option.value ~default:max_int
                         (Hashtbl.find_opt port_of (i, j)),
                       w )
                     :: acc)
                   graph v [])
            in
            let sorted = List.sort Stdlib.compare recorded in
            let d = Graph.degree graph v in
            let legal =
              List.for_all (fun (p, _) -> p >= 1 && p <= d) sorted
              && List.length (List.sort_uniq Stdlib.compare (List.map fst sorted)) = d
            in
            if not legal then
              warnings :=
                Printf.sprintf "ports of id %d compressed order-preservingly" i
                :: !warnings;
            Array.of_list (List.map snd sorted))
      in
      let ids_arr = Array.of_list all_ids in
      let bound =
        List.fold_left
          (fun acc (_, mu) -> max acc mu.View.id_bound)
          (Array.fold_left max 1 ids_arr)
          assignment
      in
      let labels =
        Array.init n (fun v -> Hashtbl.find label_of (List.nth all_ids v))
      in
      try
        let instance =
          Instance.make graph ~ports
            ~ids:(Ident.of_array ~bound ids_arr)
            ~labels
        in
        Ok
          {
            instance;
            node_of_id = List.map (fun i -> (i, node i)) assigned_ids;
            warnings = List.rev !warnings;
          }
      with Invalid_argument msg -> Error msg)

let centers_accepted dec h realization =
  let center_ids =
    Array.to_list h.views |> List.map View.center_id |> List.sort_uniq Stdlib.compare
  in
  let verdicts = Decoder.run dec realization.instance in
  List.for_all
    (fun i ->
      match List.assoc_opt i realization.node_of_id with
      | Some v -> verdicts.(v)
      | None -> false)
    center_ids

let lemma_5_1 dec ?pool h =
  match realizable ?pool h with
  | None -> Error "subgraph is not realizable"
  | Some assignment -> (
      match realize assignment with
      | Error e -> Error e
      | Ok realization ->
          if centers_accepted dec h realization then Ok realization
          else Error "glued instance does not accept all centers of H")
