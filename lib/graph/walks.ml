let rec pairs_adjacent g = function
  | a :: (b :: _ as rest) -> Graph.mem_edge g a b && pairs_adjacent g rest
  | [ _ ] | [] -> true

let is_walk g w = w <> [] && pairs_adjacent g w

let is_closed_walk g w =
  match w with
  | [] -> false
  | [ _ ] -> false
  | first :: _ ->
      let last = List.nth w (List.length w - 1) in
      pairs_adjacent g w && Graph.mem_edge g last first

let is_non_backtracking g w =
  let k = List.length w in
  if k < 3 then false
  else begin
    let arr = Array.of_list w in
    is_closed_walk g w
    && begin
         let ok = ref true in
         for i = 0 to k - 1 do
           let pred = arr.((i + k - 1) mod k) and succ = arr.((i + 1) mod k) in
           if pred = succ then ok := false
         done;
         !ok
       end
  end

let non_backtracking_closed_walk g ~start ~len =
  if len < 3 then None
  else begin
    (* DFS over (current node, previous node, steps remaining); to close
       the walk we must return to [start] at step [len] without the final
       step undoing the first, and without the first step undoing the
       last. We record the first step to check the wraparound. *)
    let exception Found of int list in
    let rec go v prev steps acc first_step =
      if steps = len then begin
        if v = start then begin
          (* wraparound check: predecessor of start (= prev of the final
             arrival) must differ from its successor (= first step) *)
          match first_step with
          | Some f when f <> prev -> raise (Found (List.rev acc))
          | _ -> ()
        end
      end
      else
        Graph.iter_neighbors
          (fun w ->
            if w <> prev then
              let first_step = match first_step with None -> Some w | s -> s in
              go w v (steps + 1) (if steps + 1 = len then acc else w :: acc)
                first_step)
          g v
    in
    try
      go start (-1) 0 [ start ] None;
      None
    with Found w -> Some w
  end

let splice walk pos insert =
  let arr = Array.of_list walk in
  if pos < 0 || pos >= Array.length arr then invalid_arg "Walks.splice: bad position";
  (match insert with
  | x :: _ when x = arr.(pos) -> ()
  | _ -> invalid_arg "Walks.splice: insert must start at the splice node");
  let before = Array.to_list (Array.sub arr 0 pos) in
  let after = Array.to_list (Array.sub arr pos (Array.length arr - pos)) in
  (* [after] starts with x = arr.(pos). The result visits x, tours the
     inserted closed walk, returns to x, then continues: the single x is
     replaced by [insert @ [x]]. *)
  match after with
  | x :: rest -> before @ insert @ (x :: rest)
  | [] -> assert false
