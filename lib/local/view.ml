open Lcp_graph

type t = {
  radius : int;
  graph : Graph.t;
  dist : int array;
  ids : int array;
  id_bound : int;
  labels : string array;
  ports : int array array;
}

module Trace = struct
  type field = Label | Id | Port | Structure

  type event = { field : field; node : int; dist : int; bits : int }

  (* The recorder is domain-local: arming a trace in one domain never
     observes (or pays for) evaluations running on another, so traced
     and untraced work can coexist under the engine's domain pool. *)
  let slot : event list ref option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let active () = Domain.DLS.get slot <> None

  let note field ~node ~dist ~bits =
    match Domain.DLS.get slot with
    | None -> ()
    | Some acc -> acc := { field; node; dist; bits } :: !acc

  let record f =
    let saved = Domain.DLS.get slot in
    let acc = ref [] in
    Domain.DLS.set slot (Some acc);
    let result = match f () with y -> Ok y | exception e -> Error e in
    Domain.DLS.set slot saved;
    match result with Ok y -> (y, List.rev !acc) | Error e -> raise e

  let label_bits s = 8 * String.length s
end

(* Shorthands for the instrumented accessors below. *)
let note_label t u =
  Trace.note Trace.Label ~node:u ~dist:t.dist.(u)
    ~bits:(Trace.label_bits t.labels.(u))

let note_id t u = Trace.note Trace.Id ~node:u ~dist:t.dist.(u) ~bits:0
let note_port t u = Trace.note Trace.Port ~node:u ~dist:t.dist.(u) ~bits:0
let note_structure t u = Trace.note Trace.Structure ~node:u ~dist:t.dist.(u) ~bits:0

(* The local order: nodes by (distance from the center, identifier).
   Every view is laid out in it, so it is label-independent and two
   views of identified instances are equal iff structurally equal. *)
let by_dist_id da ia db ib =
  if da <> db then Int.compare da db else Int.compare ia ib

(* Build a view from explicit pieces: the ball nodes (global), a
   distance table, and lookup functions. Shared by [subview1],
   [restrict] and [reidentify]. Visible edges are supplied explicitly. *)
let build ~radius ~id_bound ~ball ~gdist ~gid ~glabel ~gport ~edges =
  let ball =
    List.sort (fun a b -> by_dist_id (gdist a) (gid a) (gdist b) (gid b)) ball
  in
  let old_of_new = Array.of_list ball in
  let m = Array.length old_of_new in
  let new_of_old = Hashtbl.create m in
  Array.iteri (fun i v -> Hashtbl.replace new_of_old v i) old_of_new;
  let local_edges =
    List.map
      (fun (a, b) -> (Hashtbl.find new_of_old a, Hashtbl.find new_of_old b))
      edges
  in
  let graph = Graph.of_edges m local_edges in
  let dist = Array.map gdist old_of_new in
  let ids = Array.map gid old_of_new in
  let labels = Array.map glabel old_of_new in
  let ports =
    Array.init m (fun u ->
        let gu = old_of_new.(u) in
        Array.init (Graph.degree graph u) (fun i ->
            gport gu old_of_new.(Graph.nth_neighbor graph u i)))
  in
  assert (dist.(0) = 0);
  { radius; graph; dist; ids; id_bound; labels; ports }

type layout = {
  ball : int array;
  ball_dist : int array;
  edges : (int * int) list;
}

(* Where the layout keeps each instance node's position while it runs:
   a caller's n-sized scratch array (all -1, and left so), or a
   hashtable sized to the ball. *)
type index = Scratch of int array | Table of (int, int) Hashtbl.t

let index_get ix w =
  match ix with
  | Scratch a -> a.(w)
  | Table h -> ( match Hashtbl.find h w with i -> i | exception Not_found -> -1)

let index_set ix w i =
  match ix with Scratch a -> a.(w) <- i | Table h -> Hashtbl.replace h w i

let layout ?scratch (inst : Instance.t) ~r v =
  if r < 1 then invalid_arg "View.layout: radius must be >= 1";
  let g = inst.Instance.graph in
  let ids = inst.Instance.ids.Ident.ids in
  let ix =
    match scratch with Some a -> Scratch a | None -> Table (Hashtbl.create 16)
  in
  (* bounded BFS: cost proportional to the ball, not the whole graph.
     [bfs] lists the ball in visiting order, so distances are
     nondecreasing along it *)
  let bfs = ref (Array.make 16 0) and bd = ref (Array.make 16 0) in
  let len = ref 0 in
  let visit w d =
    if !len = Array.length !bfs then begin
      let grow a = Array.append a (Array.make !len 0) in
      bfs := grow !bfs;
      bd := grow !bd
    end;
    !bfs.(!len) <- w;
    !bd.(!len) <- d;
    index_set ix w !len;
    incr len
  in
  visit v 0;
  let head = ref 0 in
  while !head < !len do
    let x = !bfs.(!head) and dx = !bd.(!head) in
    incr head;
    if dx < r then
      Graph.iter_neighbors
        (fun y -> if index_get ix y < 0 then visit y (dx + 1))
        g x
  done;
  let m = !len and bfs = !bfs and bd = !bd in
  let perm = Array.init m Fun.id in
  Array.sort
    (fun i j -> by_dist_id bd.(i) ids.(bfs.(i)) bd.(j) ids.(bfs.(j)))
    perm;
  let ball = Array.map (fun i -> bfs.(i)) perm in
  let ball_dist = Array.map (fun i -> bd.(i)) perm in
  Array.iteri (fun u w -> index_set ix w u) ball;
  (* visible edges: min endpoint distance <= r - 1. Every edge of an
     interior node is visible; each is taken once, from its end that
     comes first in the local order, which is the interior end of an
     interior-fringe edge *)
  let edges = ref [] in
  for a = m - 1 downto 0 do
    if ball_dist.(a) < r then
      Graph.iter_neighbors
        (fun w ->
          let b = index_get ix w in
          if a < b then edges := (a, b) :: !edges)
        g ball.(a)
  done;
  (match ix with
  | Scratch s -> Array.iter (fun w -> s.(w) <- -1) ball
  | Table _ -> ());
  { ball; ball_dist; edges = !edges }

(* The ports of view node [u], one per visible edge in local neighbor
   order. A node with few visible edges scans its port row once per
   edge; past [scan_limit] visible edges (a hub near the center) that
   is quadratic in the degree, so the row is read once instead and
   each entry is placed by binary search among the visible neighbors
   sorted by instance node: O((d + k) log k) for k visible edges out
   of degree d. *)
let scan_limit = 8

let ports_of (inst : Instance.t) ball graph u =
  let k = Graph.degree graph u in
  if k <= scan_limit then
    Array.init k (fun i ->
        Port.port_of inst.Instance.ports ball.(u)
          ball.(Graph.nth_neighbor graph u i))
  else begin
    let nb i = ball.(Graph.nth_neighbor graph u i) in
    let by_node = Array.init k Fun.id in
    Array.sort (fun a b -> Int.compare (nb a) (nb b)) by_node;
    let ports = Array.make k 0 in
    Array.iteri
      (fun p w ->
        let lo = ref 0 and hi = ref k in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if nb by_node.(mid) < w then lo := mid + 1 else hi := mid
        done;
        if !lo < k && nb by_node.(!lo) = w then ports.(by_node.(!lo)) <- p + 1)
      inst.Instance.ports.(ball.(u));
    ports
  end

let of_layout (inst : Instance.t) ~r lay =
  let ball = lay.ball in
  let m = Array.length ball in
  let graph = Graph.of_edges m lay.edges in
  let ports = Array.init m (fun u -> ports_of inst ball graph u) in
  {
    radius = r;
    graph;
    dist = lay.ball_dist;
    ids = Array.map (Ident.id inst.Instance.ids) ball;
    id_bound = inst.Instance.ids.Ident.bound;
    labels = Array.map (fun w -> inst.Instance.labels.(w)) ball;
    ports;
  }

let extract inst ~r v =
  if r < 1 then invalid_arg "View.extract: radius must be >= 1";
  of_layout inst ~r (layout inst ~r v)

let extract_all inst ~r =
  if r < 1 then invalid_arg "View.extract: radius must be >= 1";
  let scratch = Array.make (Instance.order inst) (-1) in
  Array.init (Instance.order inst) (fun v ->
      of_layout inst ~r (layout ~scratch inst ~r v))

let center_id t =
  note_id t 0;
  t.ids.(0)

let center_label t =
  note_label t 0;
  t.labels.(0)

let center_degree t =
  note_structure t 0;
  Graph.degree t.graph 0

let size t =
  (* knowing the ball size reveals its full extent *)
  if Trace.active () then
    Trace.note Trace.Structure ~node:0 ~dist:(Array.fold_left max 0 t.dist)
      ~bits:0;
  Graph.order t.graph

let id t u =
  note_id t u;
  t.ids.(u)

let label t u =
  note_label t u;
  t.labels.(u)

let distance t u =
  note_structure t u;
  t.dist.(u)

let port_of t a b =
  note_port t a;
  match Graph.neighbor_rank t.graph a b with
  | Some i -> t.ports.(a).(i)
  | None -> raise Not_found

let full_degree_known t u =
  note_structure t u;
  t.dist.(u) < t.radius

let find_by_id t i =
  let m = Graph.order t.graph in
  let rec go u =
    if u = m then None
    else begin
      note_id t u;
      if t.ids.(u) = i then Some u else go (u + 1)
    end
  in
  go 0

let center_neighbors t =
  let triples =
    Graph.fold_neighbors
      (fun w acc -> (w, port_of t 0 w, port_of t w 0) :: acc)
      t.graph 0 []
  in
  List.sort (fun (_, p, _) (_, q, _) -> Stdlib.compare p q) triples

let subview1 t w =
  if not (full_degree_known t w) then
    invalid_arg "View.subview1: node is on the fringe; its 1-view is unknown";
  let ball = Graph.fold_neighbors (fun x acc -> x :: acc) t.graph w [ w ] in
  let edges = Graph.fold_neighbors (fun x acc -> (w, x) :: acc) t.graph w [] in
  build ~radius:1 ~id_bound:t.id_bound ~ball
    ~gdist:(fun x -> if x = w then 0 else 1)
    ~gid:(fun x -> t.ids.(x))
    ~glabel:(fun x -> t.labels.(x))
    ~gport:(fun a b -> port_of t a b)
    ~edges

let restrict t ~r =
  if r < 1 || r > t.radius then invalid_arg "View.restrict: bad radius";
  if r = t.radius then t
  else begin
    let ball =
      List.filter
        (fun u -> t.dist.(u) <= r)
        (List.init (Graph.order t.graph) (fun i -> i))
    in
    let edges =
      List.filter
        (fun (a, b) -> min t.dist.(a) t.dist.(b) <= r - 1 && max t.dist.(a) t.dist.(b) <= r)
        (Graph.edges t.graph)
    in
    build ~radius:r ~id_bound:t.id_bound ~ball
      ~gdist:(fun u -> t.dist.(u))
      ~gid:(fun u -> t.ids.(u))
      ~glabel:(fun u -> t.labels.(u))
      ~gport:(fun a b -> port_of t a b)
      ~edges
  end

let note_all_labels t =
  if Trace.active () then Array.iteri (fun u _ -> note_label t u) t.labels

let map_labels t f =
  (* the transformation consumes every certificate in the ball *)
  note_all_labels t;
  { t with labels = Array.map f t.labels }

let mapi_labels t f =
  note_all_labels t;
  { t with labels = Array.mapi f t.labels }

let reidentify t ~f ?id_bound () =
  let m = Graph.order t.graph in
  let new_ids = Array.map f t.ids in
  let max_id = Array.fold_left max 1 new_ids in
  let id_bound = match id_bound with Some b -> b | None -> max t.id_bound max_id in
  let seen = Hashtbl.create m in
  Array.iter
    (fun i ->
      if i < 1 || i > id_bound then invalid_arg "View.reidentify: id out of range";
      if Hashtbl.mem seen i then invalid_arg "View.reidentify: not injective";
      Hashtbl.replace seen i ())
    new_ids;
  build ~radius:t.radius ~id_bound ~ball:(List.init m (fun i -> i))
    ~gdist:(fun u -> t.dist.(u))
    ~gid:(fun u -> new_ids.(u))
    ~glabel:(fun u -> t.labels.(u))
    ~gport:(fun a b -> port_of t a b)
    ~edges:(Graph.edges t.graph)

(* Canonical serialization. [relabel] maps local -> canonical index;
   [id_repr] chooses how identifiers appear in the key. *)
let serialize t ~relabel ~id_repr =
  let m = Graph.order t.graph in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "r=%d;N=%d;m=%d|" t.radius t.id_bound m);
  (* inverse of relabel: canonical index -> local *)
  let local_of = Array.make m (-1) in
  Array.iteri (fun local canon -> local_of.(canon) <- local) relabel;
  for canon = 0 to m - 1 do
    let u = local_of.(canon) in
    Buffer.add_string buf
      (Printf.sprintf "n%d:d=%d;id=%s;l=%s;e=" canon t.dist.(u) (id_repr u)
         (String.escaped t.labels.(u)));
    let adj = ref [] in
    Graph.iteri_neighbors
      (fun i w -> adj := (t.ports.(u).(i), port_of t w u, relabel.(w)) :: !adj)
      t.graph u;
    List.iter
      (fun (p, q, w) -> Buffer.add_string buf (Printf.sprintf "(%d,%d,%d)" p q w))
      (List.sort Stdlib.compare !adj);
    Buffer.add_char buf '|'
  done;
  Buffer.contents buf

let identity_relabel t = Array.init (Graph.order t.graph) (fun i -> i)

let key_identified t =
  serialize t ~relabel:(identity_relabel t) ~id_repr:(fun u -> string_of_int t.ids.(u))

let key_order_invariant t =
  (* replace ids by their rank within the ball *)
  let m = Graph.order t.graph in
  let sorted = Array.init m (fun i -> i) in
  Array.sort (fun a b -> Stdlib.compare t.ids.(a) t.ids.(b)) sorted;
  let rank = Array.make m 0 in
  Array.iteri (fun r u -> rank.(u) <- r) sorted;
  serialize t ~relabel:(identity_relabel t)
    ~id_repr:(fun u -> Printf.sprintf "#%d" rank.(u))

let key_anonymous t =
  (* port-directed BFS from the center: deterministic and independent of
     both ids and the (dist, id) storage order *)
  let m = Graph.order t.graph in
  let relabel = Array.make m (-1) in
  let next = ref 0 in
  let assign u =
    if relabel.(u) = -1 then begin
      relabel.(u) <- !next;
      incr next;
      true
    end
    else false
  in
  let queue = Queue.create () in
  ignore (assign 0);
  Queue.add 0 queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let adj = ref [] in
    Graph.iteri_neighbors
      (fun i w -> adj := (t.ports.(u).(i), w) :: !adj)
      t.graph u;
    List.iter
      (fun (_, w) -> if assign w then Queue.add w queue)
      (List.sort Stdlib.compare !adj)
  done;
  assert (!next = m);
  serialize t ~relabel ~id_repr:(fun _ -> "_")

let equal a b = key_identified a = key_identified b
let compare a b = Stdlib.compare (key_identified a) (key_identified b)

let to_dot t =
  Graph.to_dot t.graph ~name:"View" ~label:(fun u ->
      Printf.sprintf "id=%d d=%d %s" t.ids.(u) t.dist.(u) t.labels.(u))
