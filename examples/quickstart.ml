(* Quickstart: certify 2-colorability of a path while hiding the
   coloring at one leaf (Lemma 4.1), then watch an extraction attempt
   fail.

   Run with: dune exec examples/quickstart.exe *)

open Lcp_graph
open Lcp_local
open Lcp

let () =
  (* 1. a network: the path on six nodes *)
  let g = Builders.path 6 in
  let inst = Instance.make g in
  Format.printf "network: %a@." Graph.pp g;

  (* 2. the honest prover assigns certificates per the Lemma 4.1 proof *)
  let certified =
    match Decoder.certify D_degree_one.suite inst with
    | Some i -> i
    | None -> failwith "prover failed"
  in
  Format.printf "certificates: %s@."
    (String.concat " " (Array.to_list certified.Instance.labels));

  (* 3. every node verifies its radius-1 view *)
  let verdicts = Decoder.run D_degree_one.decoder certified in
  Format.printf "verdicts: %s@."
    (String.concat " "
       (List.map (fun b -> if b then "accept" else "REJECT") (Array.to_list verdicts)));
  assert (Array.for_all (fun b -> b) verdicts);

  (* 4. strong soundness: whatever an adversary writes, accepting nodes
     induce a bipartite subgraph - try a thousand random labelings *)
  let rng = Random.State.make [| 1 |] in
  let sound =
    Checker.strong_soundness_random D_degree_one.suite ~k:2 ~trials:1000 rng
      [ Instance.make (Builders.pendant (Builders.cycle 3) 0) ]
  in
  Format.printf "strong soundness on a poisoned triangle: %a@." Checker.pp_verdict
    sound;

  (* 5. hiding: build the accepting neighborhood graph over all
     min-degree-1 yes-instances with up to 4 nodes and find the odd
     cycle that makes extraction impossible (Lemma 3.2) *)
  let graphs =
    Lcp_engine.Sweep.iso_classes 4 @ Lcp_engine.Sweep.iso_classes 3
    |> List.filter (fun g ->
           Coloring.is_bipartite g && Graph.min_degree g = 1)
  in
  let family =
    Neighborhood.exhaustive_family D_degree_one.suite ~graphs ~ports:`All ()
  in
  (match Hiding.check ~k:2 D_degree_one.decoder family with
  | Hiding.Hiding { witness; nbhd } ->
      Format.printf
        "V(D,4) has %d views and contains an odd cycle of length %d:@."
        (Neighborhood.order nbhd) (List.length witness);
      Format.printf
        "=> no 1-round algorithm can extract the 2-coloring (Lemma 3.2)@."
  | Hiding.Colorable _ -> Format.printf "unexpectedly colorable?!@.");
  Format.printf "quickstart done.@."
