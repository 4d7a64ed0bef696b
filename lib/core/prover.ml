open Lcp_graph
open Lcp_local
module Run_cfg = Lcp_obs.Run_cfg

(* ------------------------------------------------------------------ *)
(* assignment order and coverage schedule                              *)

(* Every node's radius-r ball, ascending: one bounded BFS per node
   over an n-sized distance array and queue shared by all of them. *)
let balls g ~r =
  let n = Graph.order g in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  Array.init n (fun v ->
      dist.(v) <- 0;
      queue.(0) <- v;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        if dist.(x) < r then
          Graph.iter_neighbors
            (fun y ->
              if dist.(y) < 0 then begin
                dist.(y) <- dist.(x) + 1;
                queue.(!tail) <- y;
                incr tail
              end)
            g x
      done;
      let ball = Array.sub queue 0 !tail in
      Array.iter (fun w -> dist.(w) <- -1) ball;
      Array.sort Int.compare ball;
      ball)

(* Ball-completion order: repeatedly pick the center whose radius-r
   ball has the fewest unassigned nodes left (ties to the smallest
   center), then assign its missing nodes in ascending order. Coverage
   pruning can only fire once some ball is fully labeled, so finishing
   the cheapest ball first moves the first checkable node as high up
   the backtracking tree as possible. Deterministic by construction. *)
let completion_order balls =
  let n = Array.length balls in
  let assigned = Array.make n false in
  let completed = Array.make n false in
  let order = Array.make n 0 in
  let pos = ref 0 in
  let remaining c =
    Array.fold_left (fun k w -> if assigned.(w) then k else k + 1) 0 balls.(c)
  in
  for _ = 1 to n do
    let best = ref (-1) and best_rem = ref max_int in
    for c = 0 to n - 1 do
      if not completed.(c) then begin
        let rem = remaining c in
        if rem < !best_rem then begin
          best := c;
          best_rem := rem
        end
      end
    done;
    let c = !best in
    Array.iter
      (fun w ->
        if not assigned.(w) then begin
          assigned.(w) <- true;
          order.(!pos) <- w;
          incr pos
        end)
      balls.(c);
    completed.(c) <- true
  done;
  assert (!pos = n);
  order

(* Nodes whose entire radius-r ball lies within the first [i + 1]
   assigned nodes become checkable at step [i] of the given order. *)
let coverage_schedule balls ~order =
  let n = Array.length balls in
  let step_of = Array.make n 0 in
  Array.iteri (fun i v -> step_of.(v) <- i) order;
  let newly_covered = Array.make n [] in
  for u = n - 1 downto 0 do
    let last = Array.fold_left (fun acc w -> max acc step_of.(w)) 0 balls.(u) in
    newly_covered.(last) <- u :: newly_covered.(last)
  done;
  Array.map Array.of_list newly_covered

(* ------------------------------------------------------------------ *)
(* verdict sources and the orbit quotient                              *)

type source = {
  with_accepts :
    'a.
    Decoder.t ->
    alphabet:string list ->
    Instance.t ->
    ((Labeling.t -> int array -> int -> bool) -> 'a) ->
    'a;
}

type quotient = Decoder.t -> Instance.t -> Lcp_engine.Auto.t option

(* Everything a memoized verdict depends on besides the labels: the
   decoder (name + radius stand in for its identity — names are unique
   across the registry), the alphabet, and the full configured graph
   (structure, identifiers, ports). Labels are the table's own key
   dimension and are deliberately excluded. *)
let share_key dec ~alphabet (inst : Instance.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b dec.Decoder.name;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int dec.Decoder.radius);
  Buffer.add_char b '|';
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    alphabet;
  Buffer.add_char b '|';
  let g = inst.Instance.graph in
  Buffer.add_string b (string_of_int (Lcp_graph.Graph.order g));
  Lcp_graph.Graph.iter_edges
    (fun u v ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b '-';
      Buffer.add_string b (string_of_int v))
    g;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int inst.Instance.ids.Ident.bound);
  Array.iter
    (fun id ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int id))
    inst.Instance.ids.Ident.ids;
  Buffer.add_char b '|';
  Array.iter
    (fun row ->
      Buffer.add_char b ';';
      Array.iter
        (fun w ->
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int w))
        row)
    inst.Instance.ports;
  Buffer.contents b

(* Report a lease's hit/miss delta. The three counters are
   materialized (at 0) whenever a cfg is present, so cold and warm runs
   serialize the same key set; the delta is taken since acquire, so it
   is independent of how warm a shared cache already was. *)
let count_eval_stats cfg lease =
  match cfg with
  | None -> ()
  | Some c ->
      let hits, misses = Lcp_engine.Eval_cache.lease_stats lease in
      Run_cfg.count c ~by:hits "eval_cache_hits";
      Run_cfg.count c ~by:misses "eval_cache_misses";
      Run_cfg.count c ~by:0 "eval_cache_shared_hits";
      if Lcp_engine.Eval_cache.lease_warm lease then
        Run_cfg.count c "eval_cache_shared_hits"

(* Orbit pruning is sound only for decoders whose per-node verdicts
   are invariant under the graph's automorphisms: anonymous (no id
   reads) and port-invariant (no port reads) — then the verdict
   depends only on the labeled isomorphism type of the view, so
   acceptance of [L] and [L . sigma] coincide for sigma in Aut(G). *)
let orbit_eligible dec (inst : Instance.t) =
  dec.Decoder.anonymous && dec.Decoder.port_invariant
  && Instance.order inst <= Lcp_engine.Canon.max_order

(* Decoders whose verdicts are Aut-invariant for that reason also give
   equal verdicts on equal view shapes, so their misses go through the
   per-domain shape tables. *)
let tables ?cfg () =
  {
    with_accepts =
      (fun dec ~alphabet inst k ->
        let lease =
          Lcp_engine.Eval_cache.acquire
            ~key:(lazy (share_key dec ~alphabet inst))
            ~shapes:(orbit_eligible dec inst) ~radius:dec.Decoder.radius
            ~accepts:dec.Decoder.accepts ~alphabet inst
        in
        let ec = Lcp_engine.Eval_cache.lease_cache lease in
        Fun.protect
          ~finally:(fun () ->
            count_eval_stats cfg lease;
            Lcp_engine.Eval_cache.release lease)
          (fun () ->
            k (fun lab rk u -> Lcp_engine.Eval_cache.accepts_ranked ec lab rk u)));
  }

let orbit_group dec (inst : Instance.t) =
  if not (orbit_eligible dec inst) then None
  else
    let auto = Lcp_engine.Auto.of_graph inst.Instance.graph in
    if Lcp_engine.Auto.is_trivial auto then None else Some auto

(* ------------------------------------------------------------------ *)
(* the pruned iteration driver                                         *)

let iter_with ?tally ?cfg ~accepts ~group dec ~alphabet (inst : Instance.t) f =
  let g = inst.Instance.graph in
  let r = dec.Decoder.radius in
  let balls = balls g ~r in
  let order = completion_order balls in
  let schedule = coverage_schedule balls ~order in
  (* a newly covered ball is the only thing that can change a verdict *)
  let rejects i lab rk =
    let centers = schedule.(i) in
    let cut = ref false and j = ref 0 in
    while (not !cut) && !j < Array.length centers do
      if not (accepts lab rk centers.(!j)) then cut := true;
      incr j
    done;
    !cut
  in
  let count () = match tally with Some t -> incr t | None -> () in
  (* symmetry breaking: cut a branch as soon as some automorphism
     provably maps every completion to a lex-smaller labeling — only
     non-orbit-minimal labelings are lost. The walk of the
     prefix-minimality trie along the ball-completion order is resumed
     from step to step; the search calls the prune in the walk's
     protocol (step i only below an uncut step i-1), so the walk's
     answers are the from-root ones. Cuts are tallied locally and
     flushed into the metrics in one batch at the end: a per-cut
     [Run_cfg.count] would take the registry lock inside the hottest
     loop of the search. *)
  let sym_cuts = ref 0 in
  let prune =
    match group with
    | None ->
        fun i lab rk ->
          count ();
          rejects i lab rk
    | Some auto ->
        let w = Lcp_engine.Auto.walk (Lcp_engine.Auto.prefix auto ~order) in
        fun i lab rk ->
          count ();
          if Lcp_engine.Auto.step w rk i then begin
            incr sym_cuts;
            true
          end
          else rejects i lab rk
  in
  let run () =
    Labeling.iter_backtracking_ranked ~alphabet ~order g ~prune (fun lab _ ->
        f (Array.copy lab))
  in
  match cfg with
  | None -> run ()
  | Some c ->
      (* report the cuts even when the search exits early *)
      Fun.protect run ~finally:(fun () ->
          if !sym_cuts > 0 then
            Run_cfg.count c ~by:!sym_cuts "orbit_pruned_branches")

(* The search explores labelings in lexicographic order of the
   alphabet ranks along the ball-completion order, so its first
   accepted labeling is the lex-minimum of the (Aut-closed, for
   eligible decoders) accepted set — automatically minimal in its own
   orbit. Orbit constraints only ever cut non-minimal labelings, so
   the pruned and full searches return bit-identical witnesses (and
   identical [None]s); only the tally shrinks. *)
let search_with ?cfg ~source ~quotient dec ~alphabet inst =
  let tally = ref 0 in
  let group = quotient dec inst in
  (match cfg with
  | Some c -> Run_cfg.count c ~by:0 "orbit_pruned_branches"
  | None -> ());
  let exception Found of Labeling.t in
  let witness =
    source.with_accepts dec ~alphabet inst (fun accepts ->
        try
          iter_with ~tally ?cfg ~accepts ~group dec ~alphabet inst (fun lab ->
              raise (Found lab));
          None
        with Found lab -> Some lab)
  in
  (witness, !tally)

let search_accepted ?cfg dec ~alphabet inst =
  search_with ?cfg ~source:(tables ?cfg ()) ~quotient:orbit_group dec
    ~alphabet inst

let find_accepted dec ~alphabet inst = fst (search_accepted dec ~alphabet inst)

let iter_accepted dec ~alphabet inst f =
  (tables ()).with_accepts dec ~alphabet inst (fun accepts ->
      iter_with ~accepts ~group:None dec ~alphabet inst f)
