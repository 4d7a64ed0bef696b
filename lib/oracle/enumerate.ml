open Lcp_graph

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

(* Brute-force isomorphism: backtracking on degree-compatible mappings.
   Fine for the small graphs enumerated here. *)
let isomorphic g h =
  if Graph.order g <> Graph.order h || Graph.size g <> Graph.size h then false
  else if List.sort Stdlib.compare (List.map snd (Graph.degree_counts g))
          <> List.sort Stdlib.compare (List.map snd (Graph.degree_counts h))
          || Graph.degree_counts g <> Graph.degree_counts h
  then false
  else begin
    let n = Graph.order g in
    let image = Array.make n (-1) in
    let used = Array.make n false in
    let consistent u x =
      (* mapping u -> x must preserve adjacency with already-mapped nodes *)
      Graph.degree g u = Graph.degree h x
      && List.for_all
           (fun w ->
             image.(w) = -1 || Graph.mem_edge h x image.(w) = Graph.mem_edge g u w)
           (Graph.nodes g)
    in
    let rec go u =
      if u = n then true
      else
        let rec try_images x =
          if x = n then false
          else if (not used.(x)) && consistent u x then begin
            image.(u) <- x;
            used.(x) <- true;
            if go (u + 1) then true
            else begin
              image.(u) <- -1;
              used.(x) <- false;
              try_images (x + 1)
            end
          end
          else try_images (x + 1)
        in
        try_images 0
    in
    go 0
  end

(* Streaming isomorphism dedup: bucket by cheap invariants first, then
   pairwise isomorphism within the bucket. First-seen wins, so on
   mask-ordered input the representative is the minimal-mask member. *)
let relabel g perm =
  let n = Graph.order g in
  if Array.length perm <> n then invalid_arg "Enumerate.relabel: bad permutation";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Enumerate.relabel: not a permutation";
      seen.(v) <- true)
    perm;
  Graph.of_edges n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))

let dedup_iso () =
  let invariant g = (Graph.order g, Graph.size g, Graph.degree_counts g) in
  let buckets = Hashtbl.create 64 in
  let out = ref [] in
  let push g =
    let key = invariant g in
    let reps = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
    if not (List.exists (fun h -> isomorphic g h) reps) then begin
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

let brute_classes ~connected n =
  let push, listing = dedup_iso () in
  (if connected then iter_connected else iter_graphs) n push;
  listing ()
