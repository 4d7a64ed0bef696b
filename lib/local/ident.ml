open Lcp_graph

type t = { ids : int array; bound : int }

(* A range pass, then an adjacent-duplicate scan of a sorted copy —
   skipped when the range pass saw the ids strictly ascending, as
   canonical ids are. Nothing of size [bound] is allocated, since
   [bound] can come from outside input (a decoded instance). *)
let validate ids bound =
  let ascending = ref true in
  Array.iteri
    (fun k i ->
      if i < 1 || i > bound then
        invalid_arg (Printf.sprintf "Ident: id %d out of range [1, %d]" i bound);
      if k > 0 && ids.(k - 1) >= i then ascending := false)
    ids;
  if not !ascending then begin
    let sorted = Array.copy ids in
    Array.stable_sort Int.compare sorted;
    for k = 1 to Array.length sorted - 1 do
      if sorted.(k) = sorted.(k - 1) then
        invalid_arg (Printf.sprintf "Ident: duplicate id %d" sorted.(k))
    done
  end

let canonical ?bound g =
  let n = Graph.order g in
  let bound = Option.value ~default:(max n 1) bound in
  let ids = Array.init n (fun v -> v + 1) in
  validate ids bound;
  { ids; bound }

let of_array ?bound ids =
  let bound =
    match bound with
    | Some b -> b
    | None -> Array.fold_left max 1 ids
  in
  validate ids bound;
  { ids; bound }

let random rng ~bound g =
  let n = Graph.order g in
  if bound < n then invalid_arg "Ident.random: bound < order";
  (* The first n steps of a Fisher-Yates shuffle of the virtual array
     1..bound: slot [j] holds [j + 1] until a swap displaces it, and
     only displaced slots are stored, so memory is O(n) however large
     [bound] is. [full_int] draws as [int] below 2^30 (the same ids for
     a given seed) and past it as well. *)
  let moved = Hashtbl.create (2 * n) in
  let slot j = Option.value (Hashtbl.find_opt moved j) ~default:(j + 1) in
  let ids =
    Array.init n (fun i ->
        let j = i + Random.State.full_int rng (bound - i) in
        let id = slot j in
        Hashtbl.replace moved j (slot i);
        id)
  in
  { ids; bound }

let id t v = t.ids.(v)

let node_of_id t i =
  let n = Array.length t.ids in
  let rec find v = if v = n then None else if t.ids.(v) = i then Some v else find (v + 1) in
  find 0

let is_valid g t =
  Array.length t.ids = Graph.order g
  &&
  try
    validate t.ids t.bound;
    true
  with Invalid_argument _ -> false

let order_preserving_remap t ~target =
  let n = Array.length t.ids in
  let target = List.sort_uniq Stdlib.compare target in
  if List.length target <> n then
    invalid_arg "Ident.order_preserving_remap: need exactly n distinct targets";
  let target = Array.of_list target in
  (* rank of each node's id *)
  let order = Array.init n (fun v -> v) in
  Array.sort (fun a b -> Stdlib.compare t.ids.(a) t.ids.(b)) order;
  let ids = Array.make n 0 in
  Array.iteri (fun rank v -> ids.(v) <- target.(rank)) order;
  let bound = max t.bound (Array.fold_left max 1 ids) in
  { ids; bound }

let enumerate ~bound g =
  let n = Graph.order g in
  if bound < n then invalid_arg "Ident.enumerate: bound < order";
  let rec choose taken v acc =
    if v = n then [ Array.of_list (List.rev acc) ]
    else
      List.concat_map
        (fun i ->
          if List.mem i taken then []
          else choose (i :: taken) (v + 1) (i :: acc))
        (List.init bound (fun i -> i + 1))
  in
  List.map (fun ids -> { ids; bound }) (choose [] 0 [])

let pp ppf t =
  Format.fprintf ppf "@[<h>ids[bound=%d]: %a@]" t.bound
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       Format.pp_print_int)
    (Array.to_list t.ids)
