(** Per-node acceptance tables: memoized radius-r verdicts.

    The locality fact the whole LCP framework rests on — a radius-[r]
    decoder's verdict at [v] depends only on the labeling restricted to
    the ball [N^r(v)] — makes exhaustive certificate searches wildly
    redundant when evaluated naively: the same (node, ball-labeling)
    pair is re-extracted and re-decoded at every backtracking step and
    for every full labeling that agrees on the ball. An [Eval_cache.t]
    evaluates each pair once.

    Per node of the instance, a cache's construction ({!create}, or
    {!acquire} building one):
    - lays out the radius-[r] ball ({!Lcp_local.View.layout}: the
      bounded BFS, the (dist, id) local order, the visible edges) and
      records the local-to-global node map (label-independent, because
      the local order ignores labels) and, when {!acquire} asks for
      [~shapes:true], the node's view shape;
    - sizes the node's verdict table over the ball's labeling space: a
      dense two-bit table when [|alphabet|^|ball|] is at most [2^18],
      a hashtable on a packed int key when it is not, and a hashtable
      on a textual key in the (pathological) regime where base-|Σ|
      packing overflows an int.

    {b Table lifetime.} A node's verdict table is allocated at the
    node's first query, not by [create]: a search asks only the nodes
    whose balls it completes, and an n=8 degree-one sweep queries about
    half of its nodes. Once allocated, a table lives as long as the
    cache and keeps every verdict it was given, so a pooled cache
    answers a repeated query on any domain without a decode, whatever
    that domain's shape tables hold.

    A query packs the ball's label ranks as a base-|Σ| integer and
    looks the verdict up; a miss swaps the labels into the node's view
    {e skeleton} ({!Lcp_local.View.mapi_labels}) and runs the decoder
    once. The skeleton (ball graph, ids, ports) is extracted at the
    node's first decode and kept; a node whose misses the shape level
    answers never extracts one.

    {b Shape tables.} Acquired with [~shapes:true] (only for decoders
    that are anonymous and port-invariant), a cache answers its misses
    from a second level shared by every instance the domain sees: one
    dense byte table of [|Σ|^m] entries per (verdict closure, radius,
    alphabet, id bound, view shape), where the shape is the view's
    order [m <= Canon.max_order] and its edge set in the
    label-independent (dist, id) local order. Two nodes with the same
    shape have views equal in local order apart from ids and ports, so
    such a decoder gives them the same verdict on the same labels in
    local order. Shape tables live in [Domain.DLS]. Each node resolves
    its table once, from the domain running its first miss, and keeps
    it for its later misses; {!acquire} clears these slots whenever it
    hands out a pooled cache, so a lease that moves the cache to
    another domain resolves against {e that} domain's tables. A
    systhread that finds its domain in the middle of a resolve skips
    the shape level for that miss and resolves again on the next
    one. A table larger than [2^21] entries, or one that would take
    its domain past [2^24] bytes of shape tables, is not built; those
    shapes stay per-instance.

    Determinism: verdicts are by construction identical to the direct
    [accepts (View.extract inst ~r v)] path, and for a fixed query
    sequence the hit/miss split is deterministic — per-instance tables
    are confined to whichever domain runs that instance, and a
    per-instance miss counts as a miss whether or not a shape table
    answered it — so engine counters built from {!lease_stats} are
    independent of [jobs] and of what earlier searches left in the
    shape tables.

    Not thread-safe: one cache belongs to one domain. A cache from
    {!create} stays on the domain it first missed on; only a lease
    cycle ({!release}, then {!acquire}) moves a cache between
    domains. *)

open Lcp_local

type t

val create :
  radius:int ->
  accepts:(View.t -> bool) ->
  alphabet:string list ->
  Instance.t ->
  t
(** Lay out every node's ball and compute its verdict table's size. No
    view and no table is built here: each node allocates its table at
    its first query and extracts its skeleton at its first decode (a
    miss the shape level does not answer). A node's dense table holds
    at most [2^18] keys (64 KiB); larger key spaces fall back to
    hashtables.
    Duplicate alphabet symbols are collapsed. The cache has no shape
    level; {!acquire} builds one that has.
    @raise Invalid_argument if [radius < 1]. *)

val accepts_ranked : t -> Labeling.t -> int array -> int -> bool
(** [accepts_ranked t lab ranks v]: the decoder's verdict at node [v]
    under the (possibly partial) labeling [lab], memoized. [ranks.(w)]
    is the {!Lcp_local.Labeling.ranks} rank of [lab.(w)] for every node
    [w] of [v]'s ball, so every node of the ball must carry a label
    from the alphabet the cache was built with; slots outside the ball
    may hold anything (e.g. the search's ["?"] placeholder). The key is
    packed from [ranks], so a query hashes no string; [lab] is read
    only to decode a miss. *)

val shape_stats : unit -> int * int
(** [(tables, entries)]: shape tables built and shape-table entries
    filled so far, summed over every domain of the process. Both only
    grow; a run reports its own share as the difference. *)

(** {1 Cross-run sharing}

    A long-running process (the [lcp serve] daemon) pays the ball
    layouts, the skeleton extractions and the table misses over and
    over if every certificate search builds a fresh cache. The shared
    pool keeps built caches across searches, keyed by an opaque
    caller-supplied string that must determine the verdict function
    completely: decoder identity, radius, alphabet, graph, identifiers
    and ports (labels excluded — they are the table's key dimension).

    A cache is a single-domain object, so the pool hands it out under
    an {e exclusive lease}: {!acquire} checks a key out, {!release}
    checks it back in, and acquiring a key that is currently leased
    falls back to a private unpooled cache (a missed reuse, never a
    data race). The pool mutex orders the hand-off, so a cache built
    on one domain may be reused from another after its lease cycles.

    Sharing is disabled by default; one-shot runs are unaffected. *)

type lease

val set_sharing : bool -> unit
(** Enable or disable the pool process-wide; disabling drops every
    pooled cache. *)

val shared_size : unit -> int
(** Number of pooled caches. *)

val clear_shared : unit -> unit
(** Drop every pooled cache (sharing stays enabled). *)

val acquire :
  key:string Lazy.t ->
  ?shapes:bool ->
  radius:int ->
  accepts:(View.t -> bool) ->
  alphabet:string list ->
  Instance.t ->
  lease
(** Obtain a cache for [key]: the pooled one when sharing is enabled,
    the key is present and not currently leased (a {e warm} lease);
    a freshly built one otherwise (pooled under [key] when sharing is
    enabled and the key was absent, private otherwise). [shapes]
    (default [false]) turns on the shape level described above; pass it
    only for a decoder whose verdicts ignore ids and ports. A pooled
    cache built for another [accepts] closure or another [shapes]
    setting is never handed out: the acquire gets a private cache
    instead. [key]
    is forced only when sharing is enabled, so a one-shot run never
    builds it. *)

val lease_cache : lease -> t
val lease_warm : lease -> bool
(** Was this lease satisfied by an already-built pooled cache? *)

val lease_stats : lease -> int * int
(** [(hits, misses)] accumulated {e during this lease} — the delta
    since {!acquire}, so per-run counters stay independent of how warm
    the pooled cache already was. [misses] counts the distinct
    (node, ball-labeling) pairs actually decoded. *)

val release : lease -> unit
(** Return a pooled cache to the pool (no-op on private leases). Call
    exactly once, after the last query through the lease. *)

val lease_touch : lease -> unit
(** Mark a use of the leased table under {!Lcp_obs.Sync} tracing: a
    write to the slot's shadow var, so [lcp race] turns any two
    concurrent holders of one pooled slot into a data-race finding.
    No-op on private leases and when tracing is disarmed. Stress tests
    and the [lease-pool] race scenario call this between {!acquire}
    and {!release} to certify lease exclusivity. *)
