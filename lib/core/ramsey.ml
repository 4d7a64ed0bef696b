open Lcp_local

let rec combinations pool k =
  if k = 0 then [ [] ]
  else
    match pool with
    | [] -> []
    | x :: rest ->
        List.map (fun c -> x :: c) (combinations rest (k - 1)) @ combinations rest k

let monochromatic_subset ~universe ~tuple_size ~size ~color =
  let universe = List.sort_uniq Stdlib.compare universe in
  let monochromatic subset =
    match combinations subset tuple_size with
    | [] -> true
    | first :: rest ->
        let c = color first in
        List.for_all (fun t -> color t = c) rest
  in
  List.find_opt monochromatic (combinations universe size)

let arrows ~n ~s ~t =
  let slots = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      slots := (u, v) :: !slots
    done
  done;
  let slots = Array.of_list !slots in
  let m = Array.length slots in
  if m > 20 then invalid_arg "Ramsey.arrows: n too large";
  let has_mono_clique color size want =
    combinations (List.init n (fun i -> i)) size
    |> List.exists (fun clique ->
           let rec pairs = function
             | [] -> []
             | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
           in
           List.for_all (fun (a, b) -> color (min a b, max a b) = want) (pairs clique))
  in
  let rec all_colorings mask =
    if mask = 1 lsl m then true
    else begin
      let color e =
        let rec idx i = if slots.(i) = e then i else idx (i + 1) in
        (mask lsr idx 0) land 1
      in
      (has_mono_clique color s 0 || has_mono_clique color t 1)
      && all_colorings (mask + 1)
    end
  in
  all_colorings 0

let ramsey_number ~s ~t =
  let rec go n = if arrows ~n ~s ~t then n else go (n + 1) in
  go (max s t)

let reassign_by_rank view tuple =
  let ids = Array.to_list view.View.ids in
  let sorted = List.sort Stdlib.compare ids in
  let tuple = Array.of_list tuple in
  if Array.length tuple < List.length sorted then
    invalid_arg "Ramsey: tuple smaller than the view";
  let target = Hashtbl.create 8 in
  List.iteri (fun rank i -> Hashtbl.replace target i tuple.(rank)) sorted;
  View.reidentify view
    ~f:(fun i -> Hashtbl.find target i)
    ~id_bound:(max view.View.id_bound (Array.fold_left max 1 tuple))
    ()

let decoder_type (dec : Decoder.t) ~shapes tuple =
  List.map (fun shape -> dec.Decoder.accepts (reassign_by_rank shape tuple)) shapes

(* Memoized coloring of tuples by type. *)
let type_color dec ~shapes =
  let table : (bool list, int) Hashtbl.t = Hashtbl.create 16 in
  let memo : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  let color tuple =
    match Hashtbl.find_opt memo tuple with
    | Some c -> c
    | None ->
        let ty = decoder_type dec ~shapes tuple in
        let c =
          match Hashtbl.find_opt table ty with
          | Some c -> c
          | None ->
              let c = !next in
              incr next;
              Hashtbl.replace table ty c;
              c
        in
        Hashtbl.replace memo tuple c;
        c
  in
  color

let monochromatic_ids dec ~shapes ~universe ~size =
  let tuple_size =
    List.fold_left (fun acc v -> max acc (View.size v)) 1 shapes
  in
  let color = type_color dec ~shapes in
  monochromatic_subset ~universe ~tuple_size ~size ~color

let order_invariant_decoder (dec : Decoder.t) ~mono =
  let mono = Array.of_list (List.sort_uniq Stdlib.compare mono) in
  let accepts view =
    let ids = List.sort Stdlib.compare (Array.to_list view.View.ids) in
    if List.length ids > Array.length mono then dec.Decoder.accepts view
    else begin
      let target = Hashtbl.create 8 in
      List.iteri (fun rank i -> Hashtbl.replace target i mono.(rank)) ids;
      let view' =
        View.reidentify view
          ~f:(fun i -> Hashtbl.find target i)
          ~id_bound:(max view.View.id_bound (Array.fold_left max 1 mono))
          ()
      in
      dec.Decoder.accepts view'
    end
  in
  Decoder.make
    ~name:(dec.Decoder.name ^ "-order-invariant")
    ~radius:dec.Decoder.radius ~anonymous:false accepts
