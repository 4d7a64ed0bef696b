let path n =
  Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Builders.cycle: need n >= 3";
  Graph.of_edges n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star k = Graph.of_edges (k + 1) (List.init k (fun i -> (0, i + 1)))

let complete n =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      es := (u, v) :: !es
    done
  done;
  Graph.of_edges n !es

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Builders.grid: need positive dims";
  let idx i j = (i * cols) + j in
  let es = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if j + 1 < cols then es := (idx i j, idx i (j + 1)) :: !es;
      if i + 1 < rows then es := (idx i j, idx (i + 1) j) :: !es
    done
  done;
  Graph.of_edges (rows * cols) !es

let torus rows cols =
  if rows < 3 || cols < 3 then invalid_arg "Builders.torus: need dims >= 3";
  let idx i j = (i * cols) + j in
  let es = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      es := (idx i j, idx i ((j + 1) mod cols)) :: !es;
      es := (idx i j, idx ((i + 1) mod rows) j) :: !es
    done
  done;
  Graph.of_edges (rows * cols) !es

let hypercube d =
  if d < 0 then invalid_arg "Builders.hypercube: negative dimension";
  (* 2^d must fit in an int: [1 lsl d] wraps silently past that *)
  if d > Sys.int_size - 2 then
    invalid_arg "Builders.hypercube: 2^d nodes overflow an int";
  let n = 1 lsl d in
  let es = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then es := (v, w) :: !es
    done
  done;
  Graph.of_edges n !es

let binary_tree depth =
  if depth < 0 then invalid_arg "Builders.binary_tree: negative depth";
  if depth > Sys.int_size - 2 then
    invalid_arg "Builders.binary_tree: 2^(depth+1) - 1 nodes overflow an int";
  let n = (1 lsl (depth + 1)) - 1 in
  let es = ref [] in
  for v = 0 to n - 1 do
    let l = (2 * v) + 1 and r = (2 * v) + 2 in
    if l < n then es := (v, l) :: !es;
    if r < n then es := (v, r) :: !es
  done;
  Graph.of_edges n !es

let caterpillar spine legs =
  if spine < 1 || legs < 0 then invalid_arg "Builders.caterpillar";
  let es = ref (List.init (spine - 1) (fun i -> (i, i + 1))) in
  let next = ref spine in
  for v = 0 to spine - 1 do
    for _ = 1 to legs do
      es := (v, !next) :: !es;
      incr next
    done
  done;
  Graph.of_edges !next !es

let watermelon lengths =
  if lengths = [] then invalid_arg "Builders.watermelon: no paths";
  List.iter
    (fun l -> if l < 2 then invalid_arg "Builders.watermelon: path length < 2")
    lengths;
  let next = ref 2 in
  let es = ref [] in
  let add_path len =
    (* len edges: 0 - x1 - ... - x(len-1) - 1 *)
    let first = !next in
    next := !next + (len - 1);
    es := (0, first) :: !es;
    for i = 0 to len - 3 do
      es := (first + i, first + i + 1) :: !es
    done;
    es := (first + len - 2, 1) :: !es
  in
  List.iter add_path lengths;
  Graph.of_edges !next !es

let theta a b c = watermelon [ a; b; c ]

let friendship k =
  let es = ref [] in
  for i = 0 to k - 1 do
    let a = 1 + (2 * i) and b = 2 + (2 * i) in
    es := (0, a) :: (0, b) :: (a, b) :: !es
  done;
  Graph.of_edges ((2 * k) + 1) !es

let petersen () =
  Graph.of_edges 10
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);     (* outer 5-cycle *)
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);     (* inner 5-star *)
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9) ]    (* spokes *)

let pendant g v =
  let n = Graph.order g in
  Graph.of_edges (n + 1) ((v, n) :: Graph.edges g)

let double_cover = Graph.double_cover

let random_gnp rng n p =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then es := (u, v) :: !es
    done
  done;
  Graph.of_edges n !es

let random_tree rng n =
  let es = ref [] in
  for v = 1 to n - 1 do
    es := (Random.State.int rng v, v) :: !es
  done;
  Graph.of_edges n !es

let random_connected rng n p =
  let t = random_tree rng n in
  let extra = random_gnp rng n p in
  Graph.of_edges n (Graph.edges t @ Graph.edges extra)

(* ------------------------------------------------------------------ *)
(* the textual graph-spec grammar shared by the CLI and the serve
   protocol: FAMILY[:ARGS], e.g. "cycle:5", "grid:3x4", "petersen" *)

(* The largest graph a spec may ask for. A spec is sized arithmetically
   before anything is built, so one past the cap is a [bad graph spec]
   error instead of an allocation failure or a build that never ends. *)
let max_spec_nodes = 1 lsl 22
let max_spec_edges = 1 lsl 24

let spec_syntax =
  Printf.sprintf
    "path:N cycle:N star:N complete:N grid:RxC torus:RxC hypercube:D tree:D \
     watermelon:L1,L2,... theta:A,B,C petersen caterpillar:SxL (at most %d \
     nodes and %d edges)"
    max_spec_nodes max_spec_edges

(* Checked sizing over non-negative operands (a negative argument sizes
   as 0 and is left to the builder to reject): any count past the cap,
   or past [max_int] on the way, is "too large". *)
let too_large () =
  failwith
    (Printf.sprintf "more than %d nodes or %d edges" max_spec_nodes
       max_spec_edges)

let nat x = max 0 x
let add a b = if a > max_int - b then too_large () else a + b
let mul a b = if a <> 0 && b > max_int / a then too_large () else a * b
let pow2 e = if e > Sys.int_size - 2 then too_large () else 1 lsl e

let check_size (nodes, edges) =
  if nodes > max_spec_nodes || edges > max_spec_edges then too_large ()

let of_spec spec =
  let dims s =
    match String.split_on_char 'x' s with
    | [ a; b ] -> (int_of_string a, int_of_string b)
    | _ -> failwith "expected ROWSxCOLS"
  in
  let ints s = List.map int_of_string (String.split_on_char ',' s) in
  let sized nodes edges build = ((nodes, edges), build) in
  let melon ls =
    sized
      (List.fold_left (fun a l -> add a (nat (l - 1))) 2 ls)
      (List.fold_left (fun a l -> add a (nat l)) 0 ls)
      (fun () -> watermelon ls)
  in
  try
    (* (nodes, edges) and the builder; where edges grow faster than
       nodes, the node count is checked first, so the edge arithmetic
       stays far below max_int *)
    let size, build =
      match String.split_on_char ':' spec with
      | [ "path"; n ] ->
          let n = int_of_string n in
          sized (nat n) (nat (n - 1)) (fun () -> path n)
      | [ "cycle"; n ] ->
          let n = int_of_string n in
          sized (nat n) (nat n) (fun () -> cycle n)
      | [ "star"; n ] ->
          let k = int_of_string n in
          sized (add (nat k) 1) (nat k) (fun () -> star k)
      | [ "complete"; n ] ->
          let n = int_of_string n in
          check_size (nat n, 0);
          sized (nat n) (nat n * nat (n - 1) / 2) (fun () -> complete n)
      | [ "grid"; d ] ->
          let r, c = dims d in
          let nodes = mul (nat r) (nat c) in
          check_size (nodes, 0);
          sized nodes
            ((nat r * nat (c - 1)) + (nat c * nat (r - 1)))
            (fun () -> grid r c)
      | [ "torus"; d ] ->
          let r, c = dims d in
          let nodes = mul (nat r) (nat c) in
          check_size (nodes, 0);
          sized nodes (2 * nodes) (fun () -> torus r c)
      | [ "hypercube"; d ] ->
          let d = int_of_string d in
          let nodes = pow2 (nat d) in
          check_size (nodes, 0);
          sized nodes (nat d * nodes / 2) (fun () -> hypercube d)
      | [ "tree"; d ] ->
          let d = int_of_string d in
          let nodes = pow2 (add (nat d) 1) - 1 in
          sized nodes (nodes - 1) (fun () -> binary_tree d)
      | [ "watermelon"; ls ] -> melon (ints ls)
      | [ "theta"; ls ] -> (
          match ints ls with
          | [ _; _; _ ] as ls -> melon ls
          | _ -> failwith "theta:A,B,C")
      | [ "petersen" ] -> sized 10 15 petersen
      | [ "caterpillar"; d ] ->
          let s, l = dims d in
          let nodes = mul (nat s) (add (nat l) 1) in
          sized nodes (nodes - 1) (fun () -> caterpillar s l)
      | _ -> failwith ("unknown graph family; try " ^ spec_syntax)
    in
    check_size size;
    Ok (build ())
  with
  | Failure msg ->
      Error (Printf.sprintf "bad graph spec %S: %s" spec msg)
  | Invalid_argument msg ->
      Error (Printf.sprintf "bad graph spec %S: %s" spec msg)
