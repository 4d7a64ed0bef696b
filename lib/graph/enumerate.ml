let edge_slots n =
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      acc := (u, v) :: !acc
    done
  done;
  !acc

let iter_graphs n f =
  let slots = Array.of_list (edge_slots n) in
  let m = Array.length slots in
  if m > 30 then invalid_arg "Enumerate.iter_graphs: order too large";
  for mask = 0 to (1 lsl m) - 1 do
    let es = ref [] in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then es := slots.(i) :: !es
    done;
    f (Graph.of_edges n !es)
  done

let iter_connected n f =
  iter_graphs n (fun g -> if Graph.is_connected g then f g)

(* Streaming isomorphism dedup: bucket by cheap invariants first, then
   pairwise isomorphism within the bucket. First-seen wins, so on
   mask-ordered input the representative is the minimal-mask member. *)
let dedup_iso () =
  let invariant g = (Graph.order g, Graph.size g, Graph.degree_counts g) in
  let buckets = Hashtbl.create 64 in
  let out = ref [] in
  let push g =
    let key = invariant g in
    let reps = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
    if not (List.exists (fun h -> Graph.isomorphic g h) reps) then begin
      Hashtbl.replace buckets key (g :: reps);
      out := g :: !out
    end
  in
  let listing () = List.rev !out in
  (push, listing)

let up_to_iso graphs =
  let push, listing = dedup_iso () in
  List.iter push graphs;
  listing ()

let connected_up_to_iso n =
  let push, listing = dedup_iso () in
  iter_connected n push;
  listing ()

let non_bipartite graphs = List.filter (fun g -> not (Coloring.is_bipartite g)) graphs
let bipartite graphs = List.filter Coloring.is_bipartite graphs

let count_graphs n = 1 lsl (n * (n - 1) / 2)

let brute_classes ~connected n =
  let push, listing = dedup_iso () in
  (if connected then iter_connected else iter_graphs) n push;
  listing ()
