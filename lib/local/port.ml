open Lcp_graph

type t = int array array

(* CSR row order is ascending neighbor id, which is exactly the
   canonical port numbering. *)
let canonical g = Array.init (Graph.order g) (fun v -> Graph.neighbors_array g v)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let random rng g =
  let t = canonical g in
  Array.iter (shuffle rng) t;
  t

(* Each row must be a permutation of the node's neighbors: stamp the
   neighbors of [v] with [v] in [mark], then let every row entry
   consume one stamp. A row of the right length whose entries are all
   in range and each consume a distinct stamp is exactly a permutation
   of the neighbor row. O(n + m), no per-row copy or sort. *)
let is_valid g t =
  let n = Graph.order g in
  Array.length t = n
  &&
  let mark = Array.make n (-1) in
  let row_ok v =
    let row = t.(v) in
    Array.length row = Graph.degree g v
    && begin
         Graph.iter_neighbors (fun w -> mark.(w) <- v) g v;
         Array.for_all
           (fun w ->
             w >= 0 && w < n && mark.(w) = v
             && begin
                  mark.(w) <- -1;
                  true
                end)
           row
       end
  in
  let rec all v = v = n || (row_ok v && all (v + 1)) in
  all 0

let port_of t v w =
  let arr = t.(v) in
  let rec find i =
    if i = Array.length arr then raise Not_found
    else if arr.(i) = w then i + 1
    else find (i + 1)
  in
  find 0

let neighbor_at t v p =
  if p < 1 || p > Array.length t.(v) then
    invalid_arg (Printf.sprintf "Port.neighbor_at: port %d out of range" p);
  t.(v).(p - 1)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let enumerate g =
  let per_node =
    List.map
      (fun v ->
        List.map Array.of_list
          (permutations (Array.to_list (Graph.neighbors_array g v))))
      (Graph.nodes g)
  in
  let rec product = function
    | [] -> [ [] ]
    | choices :: rest ->
        let tails = product rest in
        List.concat_map (fun c -> List.map (fun tl -> c :: tl) tails) choices
  in
  List.map Array.of_list (product per_node)

let count g =
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  Graph.fold_nodes (fun v acc -> acc * fact (Graph.degree g v)) g 1

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun v ns ->
      Format.fprintf ppf "%d: %a@," v
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           Format.pp_print_int)
        (Array.to_list ns))
    t;
  Format.fprintf ppf "@]"
