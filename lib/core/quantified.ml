open Lcp_graph
open Lcp_local

type result = {
  best : int array;
  worst_case_success : float;
  exact : bool;
}

(* Precompute, per instance, each node's view-class index (or -1). *)
let classify (nbhd : Neighborhood.t) instances =
  let key = Neighborhood.key_of_mode nbhd.Neighborhood.mode in
  let index = Hashtbl.create (Neighborhood.order nbhd) in
  Array.iteri
    (fun i v -> Hashtbl.replace index (key v) i)
    nbhd.Neighborhood.views;
  let r = nbhd.Neighborhood.view_radius in
  List.map
    (fun inst ->
      let classes =
        Array.map
          (fun view -> Option.value ~default:(-1) (Hashtbl.find_opt index (key view)))
          (View.extract_all inst ~r)
      in
      (inst, classes))
    instances

let instance_success coloring (inst, classes) =
  let g = inst.Instance.graph in
  let n = Graph.order g in
  if n = 0 then 1.0
  else begin
    let bad = Array.make n false in
    Array.iteri (fun v c -> if c = -1 then bad.(v) <- true) classes;
    Graph.iter_edges
      (fun u v ->
        let cu = if classes.(u) = -1 then -1 else coloring.(classes.(u)) in
        let cv = if classes.(v) = -1 then -2 else coloring.(classes.(v)) in
        if cu = cv then begin
          bad.(u) <- true;
          bad.(v) <- true
        end)
      g;
    let failures = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad in
    float_of_int (n - failures) /. float_of_int n
  end

let worst_case coloring classified =
  List.fold_left (fun acc ic -> min acc (instance_success coloring ic)) 1.0 classified

let exhaustive ~k m classified =
  let coloring = Array.make m 0 in
  let best = ref (Array.copy coloring) in
  let best_score = ref (worst_case coloring classified) in
  let rec go i =
    if i = m then begin
      let s = worst_case coloring classified in
      if s > !best_score then begin
        best_score := s;
        best := Array.copy coloring
      end
    end
    else
      for c = 0 to k - 1 do
        coloring.(i) <- c;
        go (i + 1)
      done
  in
  go 0;
  (!best, !best_score)

let hill_climb ~k ~restarts rng m classified =
  let best = ref (Array.make m 0) in
  let best_score = ref (worst_case !best classified) in
  for _ = 1 to restarts do
    let coloring = Array.init m (fun _ -> Random.State.int rng k) in
    let score = ref (worst_case coloring classified) in
    let improved = ref true in
    while !improved do
      improved := false;
      for i = 0 to m - 1 do
        let original = coloring.(i) in
        for c = 0 to k - 1 do
          if c <> original then begin
            coloring.(i) <- c;
            let s = worst_case coloring classified in
            if s > !score then begin
              score := s;
              improved := true
            end
            else coloring.(i) <- original
          end
        done
      done
    done;
    if !score > !best_score then begin
      best_score := !score;
      best := Array.copy coloring
    end
  done;
  (!best, !best_score)

let rec pow_capped b e cap =
  if e = 0 then 1
  else
    let r = pow_capped b (e - 1) cap in
    if r > cap / b then cap + 1 else r * b

let exact_limit = 200_000
let restarts = 20

let best_extractor ~k nbhd instances =
  let m = Neighborhood.order nbhd in
  let classified = classify nbhd instances in
  if m = 0 then { best = [||]; worst_case_success = 1.0; exact = true }
  else if pow_capped k m exact_limit <= exact_limit then begin
    let best, score = exhaustive ~k m classified in
    { best; worst_case_success = score; exact = true }
  end
  else begin
    let rng = Random.State.make [| 7 |] in
    let best, score = hill_climb ~k ~restarts rng m classified in
    { best; worst_case_success = score; exact = false }
  end

let hiding_level r = 1.0 -. r.worst_case_success
