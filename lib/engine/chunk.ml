open Lcp_graph

let slots n = n * (n - 1) / 2

let adj_of_mask n mask =
  let adj = Array.make n 0 in
  let i = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if mask land (1 lsl !i) <> 0 then begin
        adj.(u) <- adj.(u) lor (1 lsl v);
        adj.(v) <- adj.(v) lor (1 lsl u)
      end;
      incr i
    done
  done;
  adj

let adj_of_graph g =
  let n = Graph.order g in
  let adj = Array.make n 0 in
  Graph.iter_edges
    (fun u v ->
      adj.(u) <- adj.(u) lor (1 lsl v);
      adj.(v) <- adj.(v) lor (1 lsl u))
    g;
  adj

(* slot index of the pair (a, b) with a < b in lexicographic order *)
let slot_index n a b = (a * ((2 * n) - a - 3) / 2) + b - 1

let wide_mask_of_graph g =
  let n = Graph.order g in
  if slots n > Sys.int_size - 1 then
    invalid_arg "Chunk.wide_mask_of_graph: order too large";
  Graph.fold_edges (fun u v m -> m lor (1 lsl slot_index n u v)) g 0

let graph_of_mask n mask =
  let es = ref [] in
  let i = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if mask land (1 lsl !i) <> 0 then es := (u, v) :: !es;
      incr i
    done
  done;
  Graph.of_edges n !es

let is_connected_adj adj =
  let n = Array.length adj in
  if n <= 1 then true
  else begin
    let all = (1 lsl n) - 1 in
    let seen = ref 1 in
    let frontier = ref 1 in
    while !frontier <> 0 && !seen <> all do
      (* union of the frontier's adjacency rows, iterating set bits
         only (Bits.ntz) instead of scanning all n candidates *)
      let next = Bits.fold_bits (fun v acc -> acc lor adj.(v)) !frontier 0 in
      frontier := next land lnot !seen;
      seen := !seen lor next
    done;
    !seen = all
  end
