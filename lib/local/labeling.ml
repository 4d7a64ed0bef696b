open Lcp_graph

type t = string array

let const g s = Array.make (Graph.order g) s
let of_list l = Array.of_list l

let max_bits t = Array.fold_left (fun acc s -> max acc (8 * String.length s)) 0 t

let unassigned = "?"

let ranks alphabet =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s -> if not (Hashtbl.mem tbl s) then Hashtbl.add tbl s (Hashtbl.length tbl))
    alphabet;
  tbl

let iter_backtracking_ranked ~alphabet ~order g ~prune f =
  let n = Graph.order g in
  if Array.length order <> n then
    invalid_arg "Labeling.iter_backtracking_order: order has wrong length";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Labeling.iter_backtracking_order: order is not a permutation";
      seen.(v) <- true)
    order;
  let syms = Array.of_list alphabet in
  let rank_of = ranks alphabet in
  let sym_rank = Array.map (Hashtbl.find rank_of) syms in
  let lab = Array.make n unassigned in
  let rk = Array.make n 0 in
  let rec go i =
    if i = n then f lab rk
    else begin
      let v = order.(i) in
      for k = 0 to Array.length syms - 1 do
        lab.(v) <- syms.(k);
        rk.(v) <- sym_rank.(k);
        if not (prune i lab rk) then go (i + 1)
      done;
      lab.(v) <- unassigned
    end
  in
  if syms = [||] && n > 0 then () else go 0

let iter_backtracking_order ~alphabet ~order g ~prune f =
  iter_backtracking_ranked ~alphabet ~order g
    ~prune:(fun i lab _ -> prune i lab)
    (fun lab _ -> f lab)

let iter_backtracking ~alphabet g ~prune f =
  (* identity order: step index = node index, so [prune] sees the node *)
  let order = Array.init (Graph.order g) (fun i -> i) in
  iter_backtracking_order ~alphabet ~order g ~prune f

let iter_all ~alphabet g f =
  iter_backtracking ~alphabet g ~prune:(fun _ _ -> false) f

let exists_all ~alphabet g pred =
  let exception Found in
  try
    iter_all ~alphabet g (fun lab -> if pred lab then raise Found);
    false
  with Found -> true

let random rng ~alphabet g =
  let arr = Array.of_list alphabet in
  let m = Array.length arr in
  if m = 0 then invalid_arg "Labeling.random: empty alphabet";
  Array.init (Graph.order g) (fun _ -> arr.(Random.State.int rng m))

let count ~alphabet g =
  (* |alphabet|^n, saturating at [max_int]: the naive power silently
     wraps for large spaces (|Σ|^n overflows 63-bit ints as soon as
     e.g. |Σ| = 5, n = 28), and callers use the count as a work bound,
     where saturation is the honest answer. *)
  let m = List.length alphabet in
  let n = Graph.order g in
  if m = 0 then if n = 0 then 1 else 0
  else begin
    let acc = ref 1 in
    (try
       for _ = 1 to n do
         if !acc > max_int / m then begin
           acc := max_int;
           raise Exit
         end;
         acc := !acc * m
       done
     with Exit -> ());
    !acc
  end
