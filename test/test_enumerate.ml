open Lcp_graph
open Helpers

let count_iter iter n =
  let count = ref 0 in
  iter n (fun _ -> incr count);
  !count

let test_counts () =
  check_int "graphs on 3" 8 (count_iter Enumerate.iter_graphs 3);
  check_int "count formula" 8 (Enumerate.count_graphs 3);
  check_int "graphs on 4" 64 (count_iter Enumerate.iter_graphs 4);
  check_int "graphs on 0" 1 (count_iter Enumerate.iter_graphs 0);
  check_int "graphs on 1" 1 (count_iter Enumerate.iter_graphs 1)

let test_connected () =
  (* labeled connected graphs: 1, 1, 1, 4, 38 for n = 0..4 *)
  check_int "connected on 3" 4 (count_iter Enumerate.iter_connected 3);
  check_int "connected on 4" 38 (count_iter Enumerate.iter_connected 4);
  let all_connected = ref true in
  Enumerate.iter_connected 4 (fun g ->
      if not (Graph.is_connected g) then all_connected := false);
  check_bool "all connected" true !all_connected

let test_up_to_iso () =
  (* connected graphs up to isomorphism: 1, 1, 2, 6, 21 for n = 1..5 *)
  check_int "iso classes n=3" 2 (List.length (Enumerate.connected_up_to_iso 3));
  check_int "iso classes n=4" 6 (List.length (Enumerate.connected_up_to_iso 4));
  check_int "iso classes n=5" 21 (List.length (Enumerate.connected_up_to_iso 5))

let test_up_to_iso_distinct () =
  let reps = Enumerate.connected_up_to_iso 4 in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  check_bool "pairwise non-isomorphic" true
    (List.for_all (fun (a, b) -> not (Graph.isomorphic a b)) (pairs reps))

let test_bipartite_split () =
  let all = Enumerate.connected_up_to_iso 4 in
  let b = Enumerate.bipartite all and nb = Enumerate.non_bipartite all in
  check_int "partition" (List.length all) (List.length b + List.length nb);
  (* non-bipartite connected on 4 nodes up to iso: C3+pendant, C4+chord
     (diamond), K4, C3 alone is n=3 — count is 3 *)
  check_int "non-bipartite classes" 3 (List.length nb)

let test_streaming_matches_list_dedup () =
  (* connected_up_to_iso streams; up_to_iso over a materialized
     mask-ordered list must pick the identical representatives *)
  let listed = ref [] in
  Enumerate.iter_connected 4 (fun g -> listed := g :: !listed);
  let via_list = Enumerate.up_to_iso (List.rev !listed) in
  let streamed = Enumerate.connected_up_to_iso 4 in
  check_int "same class count" (List.length via_list) (List.length streamed);
  check_bool "same representatives" true
    (List.for_all2 (fun a b -> Graph.equal a b) via_list streamed)

let test_iso_classes_match_brute () =
  (* the engine's cached orderly listing must equal the brute-force
     oracle exactly, representatives and order included *)
  for n = 1 to 5 do
    List.iter
      (fun connected ->
        let engine = Lcp_engine.Sweep.iso_classes ~connected n in
        let brute = Enumerate.brute_classes ~connected n in
        let what = Printf.sprintf "n=%d connected=%b" n connected in
        check_int (what ^ ": same class count") (List.length brute)
          (List.length engine);
        check_bool (what ^ ": same representatives, same order") true
          (List.for_all2 Graph.equal brute engine))
      [ true; false ]
  done;
  check_bool "brute_classes agrees with connected_up_to_iso" true
    (List.for_all2 Graph.equal
       (Enumerate.connected_up_to_iso 5)
       (Enumerate.brute_classes ~connected:true 5))

let suite =
  [
    case "raw counts" test_counts;
    case "connected counts" test_connected;
    case "iso class counts" test_up_to_iso;
    case "iso classes pairwise distinct" test_up_to_iso_distinct;
    case "bipartite split" test_bipartite_split;
    case "streaming dedup matches list dedup" test_streaming_matches_list_dedup;
    case "iso_classes equals brute_classes" test_iso_classes_match_brute;
  ]
