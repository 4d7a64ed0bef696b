(* The Theorem 1.5 counterexample machine: from an odd cycle in the
   accepting neighborhood graph to a concrete instance G_bad on which a
   (deliberately weak) decoder accepts a non-bipartite subgraph -
   violating strong soundness exactly as Lemma 5.1 predicts.

   Run with: dune exec examples/lower_bound_demo.exe *)

open Lcp_graph
open Lcp_local
open Lcp

let accept_all =
  Decoder.make ~name:"accept-all" ~radius:1 ~anonymous:false (fun _ -> true)

let () =
  (* five path instances whose identifier windows rotate around a
     5-cycle: every one is a legitimate bipartite yes-instance *)
  let g = Builders.path 5 in
  let instances =
    List.init 5 (fun k ->
        let ids = Array.init 5 (fun v -> 1 + ((k + v) mod 5)) in
        Instance.make g ~ids:(Ident.of_array ~bound:5 ids))
  in
  List.iteri
    (fun k (inst : Instance.t) ->
      Format.printf "instance %d ids: %s@." k
        (String.concat "-"
           (Array.to_list (Array.map string_of_int inst.Instance.ids.Ident.ids))))
    instances;

  (* the accepting neighborhood graph of the accept-all decoder *)
  let nbhd = Neighborhood.build accept_all instances in
  Format.printf "%a@." Neighborhood.pp_summary nbhd;
  let cyc = Option.get (Neighborhood.odd_cycle nbhd) in
  Format.printf "odd view cycle found: centers %s@."
    (String.concat " "
       (List.map (fun i -> string_of_int (View.center_id (Neighborhood.view nbhd i))) cyc));

  (* realizability (Sec. 5.1) and the Lemma 5.1 gluing *)
  let h = Realizability.of_neighborhood nbhd cyc in
  let pool =
    List.concat_map (fun i -> Array.to_list (View.extract_all i ~r:1)) instances
  in
  (match Realizability.lemma_5_1 accept_all ~pool h with
  | Ok { Realizability.instance; node_of_id; _ } ->
      Format.printf "G_bad: %a@." Graph.pp instance.Instance.graph;
      Format.printf "id -> node: %s@."
        (String.concat " "
           (List.map (fun (i, v) -> Printf.sprintf "%d->%d" i v) node_of_id));
      assert (not (Coloring.is_bipartite instance.Instance.graph));
      Format.printf
        "G_bad is an odd cycle accepted everywhere: strong soundness violated.@."
  | Error e -> failwith e);

  (* the same pipeline cannot hurt the paper's decoders: on the
     degree-one decoder's promise class the identified neighborhood
     graph stays bipartite *)
  let suite = D_degree_one.suite in
  let graphs =
    Lcp_engine.Sweep.iso_classes 4 @ Lcp_engine.Sweep.iso_classes 3
    |> List.filter (fun g -> Coloring.is_bipartite g && Graph.min_degree g = 1)
  in
  let fam = Neighborhood.exhaustive_family suite ~graphs () in
  let nb = Neighborhood.build ~mode:Neighborhood.Identified suite.Decoder.dec fam in
  (match Neighborhood.odd_cycle nb with
  | None ->
      Format.printf
        "degree-one decoder: identified V(D,4) is bipartite - no realizable attack.@."
  | Some c -> (
      let h = Realizability.of_neighborhood nb c in
      match Realizability.lemma_5_1 suite.Decoder.dec h with
      | Error e -> Format.printf "odd cycle exists but does not realize: %s@." e
      | Ok r ->
          assert (Coloring.is_bipartite r.Realizability.instance.Instance.graph);
          Format.printf "realization stays bipartite - strong soundness intact.@."));

  (* Lemma 5.4 machinery on an r-forgetful host *)
  let theta = Builders.theta 4 4 4 in
  (match Nb_walks.edge_expansion theta ~r:1 ~u:2 ~v:3 with
  | Some w ->
      Format.printf
        "Lemma 5.4 expansion of edge {2,3} in theta(4,4,4): closed walk of %d (even, non-backtracking: %b)@."
        (List.length w)
        (Walks.is_non_backtracking theta w)
  | None -> failwith "expansion failed")
