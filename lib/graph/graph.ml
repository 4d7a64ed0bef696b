(* Flat CSR adjacency. Row [v] lives at [adj.(offsets.(v)) ..
   adj.(offsets.(v+1) - 1)], strictly increasing, no self-loops, no
   duplicates — the same neighbor order the historical sorted-list
   representation exposed, so port numbering is unchanged. *)
type t = {
  n : int;
  offsets : int array; (* length n + 1; offsets.(n) = Array.length adj *)
  adj : int array; (* flat neighbor array, each row strictly ascending *)
}

let order g = g.n

let check_node g v =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0, %d)" v g.n)

let empty n =
  if n < 0 then invalid_arg "Graph.empty: negative order";
  { n; offsets = Array.make (n + 1) 0; adj = [||] }

(* Build the CSR from [m] validated arcs [(src.(i), dst.(i))] (each
   undirected edge listed once, endpoints in range, no self-loops).
   Counting sort plus a transpose keeps the whole construction O(n + m):
   pass 1 counts degrees, pass 2 fills rows in arbitrary order, pass 3
   re-transposes — reading sources in ascending order writes every
   target row in ascending order — and pass 4 drops the (now adjacent)
   duplicates in place. *)
let of_arcs n src dst m =
  let count = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    count.(src.(i)) <- count.(src.(i)) + 1;
    count.(dst.(i)) <- count.(dst.(i)) + 1
  done;
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + count.(v)
  done;
  let total = off.(n) in
  let cursor = Array.sub off 0 (n + 1) in
  let rough = Array.make (max total 1) 0 in
  for i = 0 to m - 1 do
    let u = src.(i) and v = dst.(i) in
    rough.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    rough.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  done;
  let sorted = Array.make (max total 1) 0 in
  Array.blit off 0 cursor 0 (n + 1);
  for v = 0 to n - 1 do
    for i = off.(v) to off.(v + 1) - 1 do
      let w = rough.(i) in
      sorted.(cursor.(w)) <- v;
      cursor.(w) <- cursor.(w) + 1
    done
  done;
  (* compact duplicate entries (parallel input edges) in place *)
  let offsets = Array.make (n + 1) 0 in
  let out = ref 0 in
  for v = 0 to n - 1 do
    offsets.(v) <- !out;
    let prev = ref (-1) in
    for i = off.(v) to off.(v + 1) - 1 do
      let w = sorted.(i) in
      if w <> !prev then begin
        sorted.(!out) <- w;
        incr out;
        prev := w
      end
    done
  done;
  offsets.(n) <- !out;
  let adj =
    if !out = Array.length sorted then sorted else Array.sub sorted 0 !out
  in
  { n; offsets; adj }

let validate_edge ~who n u v =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (Printf.sprintf "%s: edge (%d,%d) out of range [0,%d)" who u v n);
  if u = v then invalid_arg (Printf.sprintf "%s: self-loop at %d" who u)

let of_edges n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative order";
  let m = List.length edge_list in
  let src = Array.make (max m 1) 0 and dst = Array.make (max m 1) 0 in
  List.iteri
    (fun i (u, v) ->
      validate_edge ~who:"Graph.of_edges" n u v;
      src.(i) <- u;
      dst.(i) <- v)
    edge_list;
  of_arcs n src dst m

(* Growable arc buffer for O(n + m) construction without intermediate
   tuple lists; the random-graph generators feed this. *)
module Builder = struct
  type t = {
    bn : int;
    mutable src : int array;
    mutable dst : int array;
    mutable len : int;
  }

  let create ?(size_hint = 16) n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative order";
    let cap = max size_hint 1 in
    { bn = n; src = Array.make cap 0; dst = Array.make cap 0; len = 0 }

  let add_edge b u v =
    validate_edge ~who:"Graph.Builder.add_edge" b.bn u v;
    if b.len = Array.length b.src then begin
      let cap = 2 * b.len in
      let src = Array.make cap 0 and dst = Array.make cap 0 in
      Array.blit b.src 0 src 0 b.len;
      Array.blit b.dst 0 dst 0 b.len;
      b.src <- src;
      b.dst <- dst
    end;
    b.src.(b.len) <- u;
    b.dst.(b.len) <- v;
    b.len <- b.len + 1

  let edge_count b = b.len
  let graph b = of_arcs b.bn b.src b.dst b.len
end

(* ---- allocation-free observation -------------------------------- *)

let degree g v =
  check_node g v;
  g.offsets.(v + 1) - g.offsets.(v)

let iter_neighbors f g v =
  check_node g v;
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f g.adj.(i)
  done

let iteri_neighbors f g v =
  check_node g v;
  let lo = g.offsets.(v) in
  for i = lo to g.offsets.(v + 1) - 1 do
    f (i - lo) g.adj.(i)
  done

let fold_neighbors f g v init =
  check_node g v;
  let acc = ref init in
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    acc := f g.adj.(i) !acc
  done;
  !acc

let exists_neighbor p g v =
  check_node g v;
  let hi = g.offsets.(v + 1) in
  let rec go i = i < hi && (p g.adj.(i) || go (i + 1)) in
  go g.offsets.(v)

let for_all_neighbors p g v = not (exists_neighbor (fun w -> not (p w)) g v)

let find_neighbor p g v =
  check_node g v;
  let hi = g.offsets.(v + 1) in
  let rec go i =
    if i >= hi then None
    else if p g.adj.(i) then Some g.adj.(i)
    else go (i + 1)
  in
  go g.offsets.(v)

let nth_neighbor g v i =
  check_node g v;
  let lo = g.offsets.(v) in
  if i < 0 || lo + i >= g.offsets.(v + 1) then
    invalid_arg
      (Printf.sprintf "Graph.nth_neighbor: index %d out of range [0,%d)" i
         (g.offsets.(v + 1) - lo));
  g.adj.(lo + i)

(* Binary search within the sorted row: O(log deg). *)
let neighbor_rank g v w =
  check_node g v;
  check_node g w;
  let lo = ref g.offsets.(v) and hi = ref (g.offsets.(v + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = g.adj.(mid) in
    if x = w then begin
      found := mid - g.offsets.(v);
      lo := !hi + 1
    end
    else if x < w then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

let mem_edge g u v = neighbor_rank g u v <> None

let neighbors g v =
  check_node g v;
  let lo = g.offsets.(v) in
  List.init (g.offsets.(v + 1) - lo) (fun i -> g.adj.(lo + i))

let neighbors_array g v =
  check_node g v;
  let lo = g.offsets.(v) in
  Array.sub g.adj lo (g.offsets.(v + 1) - lo)

let size g = g.offsets.(g.n) / 2

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for i = g.offsets.(u + 1) - 1 downto g.offsets.(u) do
      let v = g.adj.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = g.adj.(i) in
      if u < v then f u v
    done
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

(* Rebuild from the arc arrays of [g] plus edits; add/remove are
   copy-on-write conveniences for small graphs, not hot paths. *)
let arcs_of g =
  let m = size g in
  let src = Array.make (max m 1) 0 and dst = Array.make (max m 1) 0 in
  let i = ref 0 in
  iter_edges
    (fun u v ->
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i)
    g;
  (src, dst, m)

let add_edge g u v =
  check_node g u;
  check_node g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if mem_edge g u v then g
  else begin
    let src, dst, m = arcs_of g in
    let src' = Array.make (m + 1) 0 and dst' = Array.make (m + 1) 0 in
    Array.blit src 0 src' 0 m;
    Array.blit dst 0 dst' 0 m;
    src'.(m) <- u;
    dst'.(m) <- v;
    of_arcs g.n src' dst' (m + 1)
  end

let remove_edge g u v =
  check_node g u;
  check_node g v;
  if not (mem_edge g u v) then g
  else begin
    let src, dst, m = arcs_of g in
    let j = ref 0 in
    for i = 0 to m - 1 do
      let a = src.(i) and b = dst.(i) in
      if not ((a = u && b = v) || (a = v && b = u)) then begin
        src.(!j) <- a;
        dst.(!j) <- b;
        incr j
      end
    done;
    of_arcs g.n src dst !j
  end

let disjoint_union g h =
  (* rows of [g] then rows of [h] shifted by [order g]: direct CSR
     concatenation, O(n + m) *)
  let n = g.n + h.n in
  let mg = g.offsets.(g.n) and mh = h.offsets.(h.n) in
  let offsets = Array.make (n + 1) 0 in
  Array.blit g.offsets 0 offsets 0 (g.n + 1);
  for v = 0 to h.n do
    offsets.(g.n + v) <- mg + h.offsets.(v)
  done;
  let adj = Array.make (max (mg + mh) 1) 0 in
  Array.blit g.adj 0 adj 0 mg;
  for i = 0 to mh - 1 do
    adj.(mg + i) <- h.adj.(i) + g.n
  done;
  { n; offsets; adj = Array.sub adj 0 (mg + mh) }

let double_cover g =
  (* row [u] is N(u) + n and row [u + n] is N(u): both ascending, so
     the CSR is written directly, O(n + m), with no arc buffer *)
  let n = g.n in
  let arcs = g.offsets.(n) in
  let offsets = Array.make ((2 * n) + 1) 0 in
  Array.blit g.offsets 0 offsets 0 (n + 1);
  for v = 1 to n do
    offsets.(n + v) <- arcs + g.offsets.(v)
  done;
  let adj = Array.make (2 * arcs) 0 in
  for i = 0 to arcs - 1 do
    adj.(i) <- g.adj.(i) + n
  done;
  Array.blit g.adj 0 adj arcs arcs;
  { n = 2 * n; offsets; adj }

let induced g node_list =
  List.iter (check_node g) node_list;
  let keep = List.sort_uniq Stdlib.compare node_list in
  let old_of_new = Array.of_list keep in
  let m = Array.length old_of_new in
  let new_of_old = Array.make g.n (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
  let b = Builder.create ~size_hint:(m + 1) m in
  Array.iteri
    (fun a v ->
      iter_neighbors
        (fun w ->
          if v < w && new_of_old.(w) >= 0 then
            Builder.add_edge b a new_of_old.(w))
        g v)
    old_of_new;
  (Builder.graph b, old_of_new)

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: bad permutation";
  let seen = Array.make g.n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= g.n || seen.(v) then
        invalid_arg "Graph.relabel: not a permutation";
      seen.(v) <- true)
    perm;
  let src, dst, m = arcs_of g in
  for i = 0 to m - 1 do
    src.(i) <- perm.(src.(i));
    dst.(i) <- perm.(dst.(i))
  done;
  of_arcs g.n src dst m

let nodes g = List.init g.n (fun i -> i)

let fold_nodes f g init =
  let acc = ref init in
  for v = 0 to g.n - 1 do
    acc := f v !acc
  done;
  !acc

let min_degree g =
  if g.n = 0 then 0 else fold_nodes (fun v m -> min m (degree g v)) g max_int

let max_degree g = fold_nodes (fun v m -> max m (degree g v)) g 0

let degree_counts g =
  let tbl = Hashtbl.create 8 in
  for v = 0 to g.n - 1 do
    let d = degree g v in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort Stdlib.compare

(* Connected component of [start] via BFS. *)
let component_of g start =
  check_node g start;
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    acc := v :: !acc;
    iter_neighbors
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w queue
        end)
      g v
  done;
  List.sort Stdlib.compare !acc

let components g =
  let seen = Array.make g.n false in
  let comps = ref [] in
  for v = 0 to g.n - 1 do
    if not seen.(v) then begin
      let comp = component_of g v in
      List.iter (fun w -> seen.(w) <- true) comp;
      comps := comp :: !comps
    end
  done;
  List.rev !comps

let is_connected g =
  g.n <= 1
  ||
  (* single BFS; avoids materializing every component *)
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 queue;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    iter_neighbors
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          incr count;
          Queue.add w queue
        end)
      g v
  done;
  !count = g.n

let is_cycle g =
  g.n >= 3 && is_connected g
  && fold_nodes (fun v ok -> ok && degree g v = 2) g true

let is_path_graph g =
  g.n >= 1 && is_connected g && size g = g.n - 1
  && fold_nodes (fun v ok -> ok && degree g v <= 2) g true

let is_tree g = is_connected g && size g = g.n - 1

(* The CSR form is canonical (rows sorted, deduplicated), so structural
   equality is plain array equality. *)
let equal g h = g.n = h.n && g.offsets = h.offsets && g.adj = h.adj

(* Preserves the historical order: by node count, then by the [(u, v)],
   [u < v], lexicographically sorted edge list — which is exactly the
   CSR iteration order — with a shorter list comparing below any
   extension of it. *)
let compare g h =
  match Stdlib.compare g.n h.n with
  | 0 ->
      let eg = edges g and eh = edges h in
      Stdlib.compare eg eh
  | c -> c

(* Brute-force isomorphism: backtracking on degree-compatible mappings.
   Fine for the small graphs used in enumeration and tests. *)
let isomorphic g h =
  if g.n <> h.n || size g <> size h then false
  else if List.sort Stdlib.compare (List.map snd (degree_counts g))
          <> List.sort Stdlib.compare (List.map snd (degree_counts h))
          || degree_counts g <> degree_counts h
  then false
  else begin
    let n = g.n in
    let image = Array.make n (-1) in
    let used = Array.make n false in
    let consistent u x =
      (* mapping u -> x must preserve adjacency with already-mapped nodes *)
      degree g u = degree h x
      && List.for_all
           (fun w ->
             image.(w) = -1 || mem_edge h x image.(w) = mem_edge g u w)
           (nodes g)
    in
    let rec go u =
      if u = n then true
      else
        let rec try_images x =
          if x = n then false
          else if (not used.(x)) && consistent u x then begin
            image.(u) <- x;
            used.(x) <- true;
            if go (u + 1) then true
            else begin
              image.(u) <- -1;
              used.(x) <- false;
              try_images (x + 1)
            end
          end
          else try_images (x + 1)
        in
        try_images 0
    in
    go 0
  end

let pp ppf g =
  Format.fprintf ppf "@[<h>graph(n=%d; %a)@]" g.n
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges g)

let to_string g = Format.asprintf "%a" pp g

let to_dot ?(name = "G") ?label g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  for v = 0 to g.n - 1 do
    let lbl = match label with None -> string_of_int v | Some f -> f v in
    Buffer.add_string buf (Printf.sprintf "  %d [label=\"%s\"];\n" v lbl)
  done;
  iter_edges
    (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
