let is_proper g colors =
  Array.length colors = Graph.order g
  && Graph.fold_edges (fun u v ok -> ok && colors.(u) <> colors.(v)) g true

let is_proper_k g ~k colors =
  is_proper g colors && Array.for_all (fun c -> c >= 0 && c < k) colors

let two_color g =
  let n = Graph.order g in
  let colors = Array.make n (-1) in
  let ok = ref true in
  for start = 0 to n - 1 do
    if !ok && colors.(start) = -1 then begin
      colors.(start) <- 0;
      let queue = Queue.create () in
      Queue.add start queue;
      while !ok && not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        Graph.iter_neighbors
          (fun w ->
            if colors.(w) = -1 then begin
              colors.(w) <- 1 - colors.(v);
              Queue.add w queue
            end
            else if colors.(w) = colors.(v) then ok := false)
          g v
      done
    end
  done;
  if !ok then Some colors else None

let is_bipartite g = two_color g <> None

(* BFS 2-coloring with parent pointers; on a conflict edge {u,v} (same
   color), walk both parent chains to their meeting point: the two
   partial paths plus the edge form an odd cycle. *)
let odd_cycle g =
  let n = Graph.order g in
  let colors = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let conflict = ref None in
  for start = 0 to n - 1 do
    if !conflict = None && colors.(start) = -1 then begin
      colors.(start) <- 0;
      let queue = Queue.create () in
      Queue.add start queue;
      while !conflict = None && not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        Graph.iter_neighbors
          (fun w ->
            if !conflict = None then
              if colors.(w) = -1 then begin
                colors.(w) <- 1 - colors.(v);
                parent.(w) <- v;
                Queue.add w queue
              end
              else if colors.(w) = colors.(v) then conflict := Some (v, w))
          g v
      done
    end
  done;
  match !conflict with
  | None -> None
  | Some (u, v) ->
      let rec ancestors x acc = if x = -1 then acc else ancestors parent.(x) (x :: acc) in
      let pu = ancestors u [] and pv = ancestors v [] in
      (* drop the common prefix, keep the last common node *)
      let rec split pu pv common =
        match (pu, pv) with
        | a :: pu', b :: pv' when a = b -> split pu' pv' (Some a)
        | _ -> (common, pu, pv)
      in
      let common, tail_u, tail_v = split pu pv None in
      let apex = match common with Some a -> a | None -> assert false in
      (* cycle: apex .. u  then  v .. back-to just-after-apex *)
      Some ((apex :: tail_u) @ List.rev tail_v)

let odd_closed_walk_check g walk =
  match walk with
  | [] | [ _ ] -> false
  | first :: _ ->
      let rec edges_ok = function
        | a :: (b :: _ as rest) -> Graph.mem_edge g a b && edges_ok rest
        | [ last ] -> Graph.mem_edge g last first
        | [] -> true
      in
      List.length walk mod 2 = 1 && edges_ok walk

(* Backtracking colorer for one connected component (node list), writing
   into [colors]. Components are solved independently — a failure in one
   must not trigger re-exploration of another. *)
let color_component g ~k colors comp =
  (* BFS order within the component keeps constrained nodes adjacent *)
  let order = Array.of_list comp in
  let m = Array.length order in
  let feasible v c = Graph.for_all_neighbors (fun w -> colors.(w) <> c) g v in
  let rec go i used =
    if i = m then true
    else begin
      let v = order.(i) in
      (* symmetry breaking: never introduce color c before c-1 is used *)
      let limit = min (k - 1) (used + 1) in
      let rec try_color c =
        if c > limit then false
        else if feasible v c then begin
          colors.(v) <- c;
          if go (i + 1) (max used c) then true
          else begin
            colors.(v) <- -1;
            try_color (c + 1)
          end
        end
        else try_color (c + 1)
      in
      try_color 0
    end
  in
  go 0 (-1)

let k_color g ~k =
  let n = Graph.order g in
  if n = 0 then Some [||]
  else if k <= 0 then None
  else if k = 1 then if Graph.size g = 0 then Some (Array.make n 0) else None
  else if k = 2 then two_color g
  else begin
    let colors = Array.make n (-1) in
    if List.for_all (color_component g ~k colors) (Graph.components g) then Some colors
    else None
  end

let is_k_colorable g ~k = k_color g ~k <> None
