let bfs_dist g start =
  let n = Graph.order g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(start) <- 0;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Graph.iter_neighbors
      (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      g v
  done;
  dist

let ball g v r =
  let d = bfs_dist g v in
  Graph.fold_nodes (fun w acc -> if d.(w) <= r then w :: acc else acc) g []
  |> List.sort Stdlib.compare

let eccentricity g v =
  let d = bfs_dist g v in
  Array.fold_left max 0 d

let diameter g =
  if Graph.order g <= 1 then 0
  else Graph.fold_nodes (fun v acc -> max acc (eccentricity g v)) g 0

(* Shortest cycle through BFS from every node: for each BFS, a non-tree
   edge between nodes at depths d1, d2 closes a cycle of length
   d1 + d2 + 1. This yields the girth exactly (standard argument). *)
let girth g =
  let n = Graph.order g in
  let best = ref max_int in
  for s = 0 to n - 1 do
    let dist = Array.make n max_int in
    let parent = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(s) <- 0;
    Queue.add s queue;
    let continue = ref true in
    while !continue && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if 2 * dist.(v) >= !best then continue := false
      else
        Graph.iter_neighbors
          (fun w ->
            if dist.(w) = max_int then begin
              dist.(w) <- dist.(v) + 1;
              parent.(w) <- v;
              Queue.add w queue
            end
            else if parent.(v) <> w && parent.(w) <> v then
              best := min !best (dist.(v) + dist.(w) + 1))
          g v
    done
  done;
  if !best = max_int then None else Some !best

let shortest_path_avoiding g ~avoid src dst =
  let n = Graph.order g in
  let prev = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if v = dst then found := true
    else
      Graph.iter_neighbors
        (fun w ->
          if (not seen.(w)) && ((not (avoid w)) || w = dst) then begin
            seen.(w) <- true;
            prev.(w) <- v;
            Queue.add w queue
          end)
        g v
  done;
  if not !found then None
  else begin
    let rec rebuild v acc = if v = src then src :: acc else rebuild prev.(v) (v :: acc) in
    Some (rebuild dst [])
  end

let shortest_path g src dst = shortest_path_avoiding g ~avoid:(fun _ -> false) src dst
