open Lcp_graph
open Lcp_local

(* Per-node acceptance tables.

   A radius-r verdict depends on the instance only through the labeling
   restricted to the node's ball: structure, ports and identifiers are
   fixed per instance, so for a fixed (instance, decoder) pair the map

     ball labeling |-> accepts (view of v)

   is a finite function with |alphabet|^|ball v| entries. The table for
   node v memoizes it, keyed by the ranks of the ball labels packed as
   a base-|Σ| integer, and is allocated at the node's first query: a
   search asks only the nodes whose balls it completes, about half of
   them in an n=8 sweep. Misses are evaluated by swapping the candidate
   labels into a view skeleton extracted once per node, at its first
   decode — no per-query BFS, sorting or graph construction. A node
   whose misses the shape level answers never extracts one. *)

type store =
  | Unbuilt
      (* no query yet: the table is allocated at the node's first
         query, so a node the search never asks costs none *)
  | Dense of Bytes.t
      (* two bits per key (see [slot]); used when the key space fits
         [dense_limit] bytes at four keys a byte *)
  | Hashed of (int, bool) Hashtbl.t
      (* packed int key; key space too large to materialize *)
  | Keyed of (string, bool) Hashtbl.t
      (* textual key; base-|Σ| packing would overflow an int *)

type node_tab = {
  globals : int array;
      (* globals.(u) = instance node behind local view node u *)
  mutable skeleton : View.t option;
      (* extracted at the node's first decode; labels swapped per miss *)
  mutable store : store;
  shape : int;
      (* the view's shape (order and local edge mask, packed); -1 when
         the shape level is off for this node *)
  space : int;
      (* |Σ|^m, the size of the node's verdict and shape tables; -1
         when it overflows an int *)
  mutable shared : Bytes.t option;
      (* the node's shape table on the domain using the cache, resolved
         at the node's first miss ([Some Bytes.empty]: none to use);
         [None] until then, and again after each [acquire] *)
}

(* What a shape table is keyed by besides the decoder's verdict
   closure and the shape itself. *)
type scope = { radius : int; symbols : string; id_bound : int }

type t = {
  accepts : View.t -> bool;
  inst : Instance.t;
  radius : int;
  sigma : int;
  nodes : node_tab array;
  scope : scope option; (* None: no shape level *)
  mutable hits : int;
  mutable misses : int;
}

(* Bytes a node's dense table may take: 2^18 keys. *)
let dense_limit = 1 lsl 16

(* Verdict tables hold two bits per key, four keys a byte:
   0 = unknown, 1 = reject, 2 = accept. Most keys of a table are never
   asked for, so the packing cuts what each instance allocates (and the
   major-heap garbage a sweep leaves behind) fourfold. *)
let table_bytes space = (space + 3) / 4
let make_table space = Bytes.make (table_bytes space) '\000'

let slot table key =
  (Char.code (Bytes.unsafe_get table (key lsr 2)) lsr ((key land 3) lsl 1))
  land 3

let fill table key verdict =
  let i = key lsr 2 in
  let code = if verdict then 2 else 1 in
  Bytes.unsafe_set table i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get table i) lor (code lsl ((key land 3) lsl 1))))

(* |Σ|^m if it fits an int, None on overflow. *)
let pow_opt base e =
  if base = 0 then Some (if e = 0 then 1 else 0)
  else begin
    let acc = ref 1 in
    let ok = ref true in
    for _ = 1 to e do
      if !acc > max_int / base then ok := false else acc := !acc * base
    done;
    if !ok then Some !acc else None
  end

(* ------------------------------------------------------------------ *)
(* the shape level

   For a decoder that is anonymous and port-invariant, a node's verdict
   is a function of its view up to ids and ports. [View.layout] lays
   every view out in a label-independent (dist, id) local order, so two
   nodes whose views have the same order, the same edges in local
   order, the same radius and the same id bound have views that differ
   only in ids and ports once the labels in local order agree: their
   verdicts coincide. The per-instance table's key is exactly the
   labels in local order, so a shape table indexed by that key serves
   every node of every instance with the same shape. Views are stars
   at radius 1 (fringe-fringe edges are not visible), so the shape is
   then just the order; no canonical form is needed because the local
   order already is one.

   Shape tables sit under the per-instance tables: a per-instance miss
   is still counted as a miss and still fills the per-instance entry,
   so [stats] (and every counter built from it) is unchanged; only the
   decode behind the miss is skipped when the shape table knows the
   entry. Tables are per domain ([Domain.DLS]): nothing is shared
   between domains and nothing is locked. A node resolves its table
   from the domain running its first miss and keeps it in its
   [shared] slot, so later misses skip the DLS read and the table
   lookup. The pool below can lease a cache to another domain, so
   [acquire] clears the slots of a pooled cache it hands out: a lease
   only ever fills entries of its own domain's tables. Systhreads
   share their domain's state and can be preempted inside a resolve,
   so a resolve that finds the state busy skips the shape level for
   that one miss and leaves the slot empty (the same rule as
   [Canon]'s scratch); there is no poll point between the [busy] test
   and its set. *)

let shape_table_limit = 1 lsl 21
(* entries per shape table (a quarter of that in bytes): |Σ| = 5 up to
   a 9-node view *)

let shape_budget = 1 lsl 24 (* bytes of shape tables per domain *)

type shape_scope = {
  owner : View.t -> bool; (* the decoder's verdict closure, compared with == *)
  key : scope;
  tables : (int, Bytes.t) Hashtbl.t;
      (* shape -> verdicts, coded as in [Dense]; [Bytes.empty] marks a
         shape turned away by the budget *)
}

type shapes = {
  mutable busy : bool;
  mutable scopes : shape_scope list;
  mutable bytes : int;
}

let shapes_key =
  Domain.DLS.new_key (fun () -> { busy = false; scopes = []; bytes = 0 })

module Sync = Lcp_obs.Sync

let tables_built = Sync.A.make "engine/eval_cache.shape_tables" 0
let entries_filled = Sync.A.make "engine/eval_cache.shape_entries" 0
let shape_stats () = (Sync.A.get tables_built, Sync.A.get entries_filled)

(* The view's order and its edges as a bit mask over local pairs
   (a < b: bit b(b-1)/2 + a), packed into one int: 4 bits of order and
   at most 55 mask bits for an order <= [Canon.max_order]. *)
let shape_of (lay : View.layout) =
  let mask =
    List.fold_left
      (fun mask (a, b) -> mask lor (1 lsl ((b * (b - 1) / 2) + a)))
      0 lay.View.edges
  in
  (mask lsl 4) lor Array.length lay.View.ball

let same_scope t s =
  s.owner == t.accepts
  &&
  match t.scope with
  | Some k ->
      k.radius = s.key.radius && k.id_bound = s.key.id_bound
      && String.equal k.symbols s.key.symbols
  | None -> false

let resolve d t tab =
  let rec find = function
    | s :: rest -> if same_scope t s then s else find rest
    | [] ->
        let s =
          { owner = t.accepts; key = Option.get t.scope; tables = Hashtbl.create 16 }
        in
        d.scopes <- s :: d.scopes;
        s
  in
  let s = find d.scopes in
  match Hashtbl.find s.tables tab.shape with
  | table -> table
  | exception Not_found ->
      let table =
        let size = table_bytes tab.space in
        if d.bytes + size > shape_budget then Bytes.empty
        else begin
          d.bytes <- d.bytes + size;
          Sync.A.incr tables_built;
          make_table tab.space
        end
      in
      Hashtbl.replace s.tables tab.shape table;
      table

(* The node's shape table on this domain, [Bytes.empty] when there is
   none to use: the slot once resolved, else one resolve. *)
let shape_table t tab =
  match tab.shared with
  | Some table -> table
  | None ->
      let d = Domain.DLS.get shapes_key in
      if d.busy then Bytes.empty
      else begin
        d.busy <- true;
        match resolve d t tab with
        | table ->
            d.busy <- false;
            tab.shared <- Some table;
            table
        | exception e ->
            d.busy <- false;
            raise e
      end

(* ------------------------------------------------------------------ *)
(* per-instance tables                                                 *)

let build_cache ~shapes ~radius ~accepts ~alphabet (inst : Instance.t) =
  if radius < 1 then invalid_arg "Eval_cache.create: radius must be >= 1";
  let sym = Labeling.ranks alphabet in
  let sigma = Hashtbl.length sym in
  let scope =
    if not shapes then None
    else begin
      let symbols = Array.make sigma "" in
      Hashtbl.iter (fun s i -> symbols.(i) <- s) sym;
      let b = Buffer.create 32 in
      Array.iter
        (fun s ->
          Buffer.add_string b (string_of_int (String.length s));
          Buffer.add_char b ':';
          Buffer.add_string b s)
        symbols;
      Some
        { radius; symbols = Buffer.contents b; id_bound = inst.Instance.ids.Ident.bound }
    end
  in
  let n = Graph.order inst.Instance.graph in
  let scratch = Array.make n (-1) in
  let nodes =
    Array.init n (fun v ->
        (* the view's (dist, id) local order is label-independent, so
           the local -> global map is fixed for the instance *)
        let lay = View.layout ~scratch inst ~r:radius v in
        let globals = lay.View.ball in
        let m = Array.length globals in
        let space = Option.value (pow_opt sigma m) ~default:(-1) in
        let shape =
          if
            scope <> None && m <= Canon.max_order && space > 0
            && space <= shape_table_limit
          then shape_of lay
          else -1
        in
        { globals; skeleton = None; store = Unbuilt; shape; space; shared = None })
  in
  { accepts; inst; radius; sigma; nodes; scope; hits = 0; misses = 0 }

let create = build_cache ~shapes:false

(* Evaluate by swapping the candidate ball labels into the skeleton:
   structure, ports and ids are reused, only the label array is fresh. *)
let decode t tab (lab : Labeling.t) =
  let skeleton =
    match tab.skeleton with
    | Some s -> s
    | None ->
        let s = View.extract t.inst ~r:t.radius tab.globals.(0) in
        tab.skeleton <- Some s;
        s
  in
  t.accepts (View.mapi_labels skeleton (fun u _ -> lab.(tab.globals.(u))))

(* A per-instance miss: counted here whichever way it is answered, so
   the hit/miss split never depends on the shape level. [key] is the
   node's packed int key; nodes without a shape never read it. *)
let miss t tab key lab =
  t.misses <- t.misses + 1;
  if tab.shape < 0 then decode t tab lab
  else
    let shared = shape_table t tab in
    if Bytes.length shared = 0 then decode t tab lab
    else
      match slot shared key with
      | 0 ->
          let verdict = decode t tab lab in
          fill shared key verdict;
          Sync.A.incr entries_filled;
          verdict
      | code -> code = 2

let pack t tab ranks =
  let g = tab.globals in
  let key = ref 0 in
  for u = 0 to Array.length g - 1 do
    key := (!key * t.sigma) + ranks.(g.(u))
  done;
  !key

(* Textual key of the ball's ranks, for the overflow regime. *)
let text_key tab ranks =
  let buf = Buffer.create (4 * Array.length tab.globals) in
  Array.iter
    (fun w ->
      Buffer.add_string buf (string_of_int ranks.(w));
      Buffer.add_char buf ',')
    tab.globals;
  Buffer.contents buf

let hit t verdict =
  t.hits <- t.hits + 1;
  verdict

(* The node's verdict table, sized by the [dense_limit] rule. *)
let build_store space =
  if space < 0 then Keyed (Hashtbl.create 1024)
  else if table_bytes space <= dense_limit then Dense (make_table space)
  else Hashed (Hashtbl.create 1024)

let rec accepts_ranked t (lab : Labeling.t) ranks v =
  let tab = t.nodes.(v) in
  match tab.store with
  | Unbuilt ->
      tab.store <- build_store tab.space;
      accepts_ranked t lab ranks v
  | Dense table -> (
      let key = pack t tab ranks in
      match slot table key with
      | 0 ->
          let verdict = miss t tab key lab in
          fill table key verdict;
          verdict
      | code -> hit t (code = 2))
  | Hashed tbl -> (
      let key = pack t tab ranks in
      match Hashtbl.find tbl key with
      | verdict -> hit t verdict
      | exception Not_found ->
          let verdict = miss t tab key lab in
          Hashtbl.replace tbl key verdict;
          verdict)
  | Keyed tbl -> (
      let key = text_key tab ranks in
      match Hashtbl.find tbl key with
      | verdict -> hit t verdict
      | exception Not_found ->
          let verdict = miss t tab (-1) lab in
          Hashtbl.replace tbl key verdict;
          verdict)

let stats t = (t.hits, t.misses)

(* ------------------------------------------------------------------ *)
(* cross-run sharing

   A long-running process (the serve daemon) answers many requests
   over the same small instance space; rebuilding the per-node
   skeletons and re-decoding the same ball labelings on every request
   wastes most of the work the tables exist to save. The shared pool
   keeps built caches keyed by an opaque caller-supplied string (the
   caller must fold in everything a verdict depends on: decoder
   identity, radius, alphabet, graph, ids, ports — labels excluded,
   they are the table's key dimension).

   Caches are single-domain objects, so the pool hands them out under
   an exclusive lease: [acquire] checks the key out, [release] checks
   it back in, and a second acquirer of a busy key gets a private
   unpooled cache instead of a data race. The pool mutex orders the
   hand-off between domains (happens-before through lock release /
   acquire), so a cache built by one domain is safe to reuse from
   another once leased.

   Sharing is off by default — one-shot CLI runs behave exactly as
   before; the daemon opts in at startup. *)

type slot = {
  mutable in_use : bool;
  cached : t;
  guard : unit Sync.Var.t;
      (* shadow var for the leased table's mutable internals: touched
         by the holder at acquire/release (and by {!lease_touch}), so
         a double-leased slot shows up as a data-race finding *)
}

type lease = {
  cache : t;
  warm : bool;  (* did the pool satisfy this acquire? *)
  base_hits : int;
  base_misses : int;
  slot : slot option;  (* None: private cache, nothing to release *)
}

let pool : (string, slot) Hashtbl.t = Hashtbl.create 64
let pool_lock = Sync.mutex "engine/eval_cache.pool"
let pool_guard = Sync.Var.make "engine/eval_cache.pool.table" ()
let sharing = Atomic.make false (* written under the pool lock *)

let locked f =
  Sync.with_lock pool_lock (fun () ->
      Sync.Var.touch pool_guard;
      f ())

let set_sharing on =
  locked (fun () ->
      Atomic.set sharing on;
      if not on then Hashtbl.reset pool)

let shared_size () = locked (fun () -> Hashtbl.length pool)
let clear_shared () = locked (fun () -> Hashtbl.reset pool)

let private_lease cache =
  { cache; warm = false; base_hits = 0; base_misses = 0; slot = None }

let acquire ~key ?(shapes = false) ~radius ~accepts ~alphabet inst =
  let build () = build_cache ~shapes ~radius ~accepts ~alphabet inst in
  (* a key names the verdict function only as far as the caller can
     spell it; a pooled cache built for another closure, or with the
     other shape setting, is never handed out under it *)
  let fits slot =
    slot.cached.accepts == accepts && Option.is_some slot.cached.scope = shapes
  in
  (* a one-shot run never pools, so it never builds the key *)
  if not (Atomic.get sharing) then private_lease (build ())
  else begin
    let key = Lazy.force key in
    (* sharing may be switched off from here on: that empties the pool,
       so the lookup misses and the claim below fails *)
    let existing =
      locked (fun () ->
          match Hashtbl.find_opt pool key with
          | Some slot when (not slot.in_use) && fits slot ->
              slot.in_use <- true;
              `Leased slot
          | Some _ -> `Busy
          | None -> `Absent)
    in
    match existing with
    | `Busy -> private_lease (build ())
    | `Leased slot ->
        (* we are the exclusive holder now: stats reads and the guard
           touch happen outside the pool lock on purpose — the lease IS
           the synchronization, and [lcp race] checks exactly that *)
        Sync.Var.touch slot.guard;
        (* the slots point into the previous holder's domain's tables *)
        Array.iter (fun tab -> tab.shared <- None) slot.cached.nodes;
        let hits, misses = stats slot.cached in
        {
          cache = slot.cached;
          warm = true;
          base_hits = hits;
          base_misses = misses;
          slot = Some slot;
        }
    | `Absent -> (
        (* build outside the lock; on a race the loser keeps a private
           cache, which is merely a missed reuse, never a shared mutation *)
        let cache = build () in
        let slot =
          {
            in_use = true;
            cached = cache;
            guard = Sync.Var.make ("engine/eval_cache.slot/" ^ key) ();
          }
        in
        let claimed =
          locked (fun () ->
              if Atomic.get sharing && not (Hashtbl.mem pool key) then begin
                Hashtbl.replace pool key slot;
                true
              end
              else false)
        in
        match claimed with
        | true ->
            Sync.Var.touch slot.guard;
            { cache; warm = false; base_hits = 0; base_misses = 0; slot = Some slot }
        | false -> private_lease cache)
  end

let lease_cache l = l.cache
let lease_warm l = l.warm

(* Mark a use of the leased table while holding the lease. A no-op for
   private leases and when disarmed; under [lcp race] two concurrent
   holders of the same slot become a data-race finding — the
   exclusivity contract, checked mechanically. *)
let lease_touch l =
  match l.slot with Some slot -> Sync.Var.touch slot.guard | None -> ()

let lease_stats l =
  let hits, misses = stats l.cache in
  (hits - l.base_hits, misses - l.base_misses)

let release l =
  match l.slot with
  | None -> ()
  | Some slot ->
      (* last exclusive access before the hand-off *)
      Sync.Var.touch slot.guard;
      locked (fun () -> slot.in_use <- false)
