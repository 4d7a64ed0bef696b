(* Seeded generators sized for the 10^5..10^6-node sampled workload.
   Everything is O(n + m) and deterministic in the supplied RNG state:
   same seed => identical edge sets, on any machine. *)

let gnp rng n ~p =
  if n < 0 then invalid_arg "Random_graphs.gnp: negative order";
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Random_graphs.gnp: p outside [0,1]";
  let expected =
    int_of_float (p *. float_of_int n *. float_of_int (max 0 (n - 1)) /. 2.)
  in
  (* the drawn count is binomial, standard deviation below
     sqrt expected: four of them of slack means the edge arrays
     almost never regrow mid-build *)
  let slack = 4 * int_of_float (Float.ceil (sqrt (float_of_int expected))) in
  let b = Graph.Builder.create ~size_hint:(expected + slack + 16) n in
  if p >= 1. then
    for v = 1 to n - 1 do
      for w = 0 to v - 1 do
        Graph.Builder.add_edge b w v
      done
    done
  else if p > 0. && n > 1 then begin
    (* Batagelj-Brandes skip sampling: walk the lower-triangle pairs
       (w, v), w < v, in lexicographic order with geometric jumps, so
       the cost is proportional to the number of edges drawn rather
       than the n(n-1)/2 pairs. *)
    let lq = log (1. -. p) in
    let v = ref 1 and w = ref (-1) in
    let continue = ref true in
    while !continue do
      let u = Random.State.float rng 1.0 in
      let skip = int_of_float (log (1. -. u) /. lq) in
      w := !w + 1 + skip;
      while !v < n && !w >= !v do
        w := !w - !v;
        incr v
      done;
      if !v >= n then continue := false
      else Graph.Builder.add_edge b !w !v
    done
  end;
  Graph.Builder.graph b

let gnp_avg_degree rng n ~avg_degree =
  if avg_degree < 0. then
    invalid_arg "Random_graphs.gnp_avg_degree: negative average degree";
  let p = if n <= 1 then 0. else min 1. (avg_degree /. float_of_int (n - 1)) in
  gnp rng n ~p

let preferential_attachment rng n ~m =
  if m < 1 then invalid_arg "Random_graphs.preferential_attachment: need m >= 1";
  if n < m + 1 then
    invalid_arg "Random_graphs.preferential_attachment: need n >= m + 1";
  let seed_edges = m * (m + 1) / 2 in
  let total_edges = seed_edges + ((n - m - 1) * m) in
  let b = Graph.Builder.create ~size_hint:total_edges n in
  (* the endpoint multiset: each edge contributes both ends, so drawing
     a uniform entry is drawing a node with probability proportional to
     its degree — the classic Barabasi-Albert power-law mechanism *)
  let reps = Array.make (2 * total_edges) 0 in
  let len = ref 0 in
  let push x =
    reps.(!len) <- x;
    incr len
  in
  for u = 0 to m do
    for v = u + 1 to m do
      Graph.Builder.add_edge b u v;
      push u;
      push v
    done
  done;
  let targets = Array.make m 0 in
  for v = m + 1 to n - 1 do
    let chosen = ref 0 in
    while !chosen < m do
      let t = reps.(Random.State.int rng !len) in
      let dup = ref false in
      for i = 0 to !chosen - 1 do
        if targets.(i) = t then dup := true
      done;
      if not !dup then begin
        targets.(!chosen) <- t;
        incr chosen
      end
    done;
    for i = 0 to m - 1 do
      Graph.Builder.add_edge b targets.(i) v;
      push targets.(i);
      push v
    done
  done;
  Graph.Builder.graph b

let tree rng n =
  if n < 0 then invalid_arg "Random_graphs.tree: negative order";
  let b = Graph.Builder.create ~size_hint:(max (n - 1) 1) n in
  for v = 1 to n - 1 do
    Graph.Builder.add_edge b (Random.State.int rng v) v
  done;
  Graph.Builder.graph b

let grid_near n =
  if n < 1 then invalid_arg "Random_graphs.grid_near: need n >= 1";
  let rows = max 1 (int_of_float (sqrt (float_of_int n))) in
  let cols = max 1 (n / rows) in
  Builders.grid rows cols

(* ------------------------------------------------------------------ *)
(* the textual model grammar used by `lcp sample` and the bench *)

let model_syntax = "gnp[:AVG_DEGREE] ba[:M] tree grid"

let of_model rng ~nodes spec =
  try
    Ok
      (match String.split_on_char ':' spec with
      | [ "gnp" ] -> gnp_avg_degree rng nodes ~avg_degree:8.
      | [ "gnp"; d ] -> gnp_avg_degree rng nodes ~avg_degree:(float_of_string d)
      | [ "ba" ] -> preferential_attachment rng nodes ~m:4
      | [ "ba"; m ] -> preferential_attachment rng nodes ~m:(int_of_string m)
      | [ "tree" ] -> tree rng nodes
      | [ "grid" ] -> grid_near nodes
      | _ -> failwith ("unknown random-graph model; try " ^ model_syntax))
  with
  | Failure msg -> Error (Printf.sprintf "bad model spec %S: %s" spec msg)
  | Invalid_argument msg -> Error (Printf.sprintf "bad model spec %S: %s" spec msg)
