(** Per-node acceptance tables: memoized radius-r verdicts.

    The locality fact the whole LCP framework rests on — a radius-[r]
    decoder's verdict at [v] depends only on the labeling restricted to
    the ball [N^r(v)] — makes exhaustive certificate searches wildly
    redundant when evaluated naively: the same (node, ball-labeling)
    pair is re-extracted and re-decoded at every backtracking step and
    for every full labeling that agrees on the ball. An [Eval_cache.t]
    evaluates each pair once.

    Per node of the instance, [create]:
    - extracts the radius-[r] view {e skeleton} once (the BFS, the
      canonical (dist, id) node order, the ball graph and ports);
    - records the local-to-global node map (label-independent, because
      the canonical order ignores labels);
    - sizes a verdict table over the ball's labeling space: a dense
      byte table when [|alphabet|^|ball|] fits [dense_limit], a
      hashtable on a packed int key when it does not, and a hashtable
      on a textual key in the (pathological) regime where base-|Σ|
      packing overflows an int.

    A query packs the ball's label ranks as a base-|Σ| integer and
    looks the verdict up; a miss swaps the labels into the skeleton
    ({!Lcp_local.View.mapi_labels} — no re-extraction) and runs the
    decoder once. Labels outside the alphabet bypass the table (the
    query is answered correctly but never cached).

    {b Shape tables.} Created with [~shapes:true] (only for decoders
    that are anonymous and port-invariant), a cache answers its misses
    from a second level shared by every instance the domain sees: one
    dense byte table of [|Σ|^m] entries per (verdict closure, radius,
    alphabet, id bound, view shape), where the shape is the view's
    order [m <= Canon.max_order] and its edge set in the
    label-independent (dist, id) local order. Two nodes with the same
    shape have views equal in local order apart from ids and ports, so
    such a decoder gives them the same verdict on the same labels in
    local order. Shape tables live in [Domain.DLS] and are resolved
    from the querying domain on each miss, never stored in the cache
    (which the pool may lease to another domain). A table larger than
    [2^21] entries, or one that would take its domain past [2^24]
    bytes of shape tables, is not built; those shapes stay
    per-instance.

    Determinism: verdicts are by construction identical to the direct
    [accepts (View.extract inst ~r v)] path, and for a fixed query
    sequence the hit/miss split is deterministic — per-instance tables
    are confined to whichever domain runs that instance, and a
    per-instance miss counts as a miss whether or not a shape table
    answered it — so engine counters built from {!stats} are
    independent of [jobs] and of what earlier searches left in the
    shape tables.

    Not thread-safe: one cache belongs to one domain. *)

open Lcp_local

type t

val create :
  ?dense_limit:int ->
  ?shapes:bool ->
  radius:int ->
  accepts:(View.t -> bool) ->
  alphabet:string list ->
  Instance.t ->
  t
(** Build the per-node skeletons and (empty) verdict tables for an
    instance. [dense_limit] (default [65536]) caps the per-node byte
    table; larger key spaces fall back to hashtables. Duplicate
    alphabet symbols are collapsed. [shapes] (default [false]) turns
    on the shape level described above; pass it only for a decoder
    whose verdicts ignore ids and ports.
    @raise Invalid_argument if [radius < 1]. *)

val accepts : t -> Labeling.t -> int -> bool
(** [accepts t lab v]: the decoder's verdict at node [v] under the
    (possibly partial) labeling [lab] — every node of [v]'s ball must
    carry a real label; slots outside the ball may hold anything
    (e.g. the search's ["?"] placeholder). Memoized. *)

val accepts_ranked : t -> Labeling.t -> int array -> int -> bool
(** [accepts_ranked t lab ranks v]: {!accepts} for a search that keeps
    the {!Lcp_local.Labeling.ranks} of its labels, [ranks.(w)] for
    every node [w] of [v]'s ball. The key is packed from [ranks], so a
    query hashes no string; [lab] is read only to decode a miss. Every
    rank must come from the alphabet the cache was built with. *)

val shape_stats : unit -> int * int
(** [(tables, entries)]: shape tables built and shape-table entries
    filled so far, summed over every domain of the process. Both only
    grow; a run reports its own share as the difference. *)

val verdicts : t -> Labeling.t -> bool array
(** All nodes' verdicts under a complete labeling — the memoized
    equivalent of [Decoder.run], one table lookup per node. *)

val ball : t -> int -> int array
(** The instance nodes of [v]'s ball in view-local (dist, id) order —
    the key dimensions of [v]'s table. Fresh copy. *)

val stats : t -> int * int
(** [(hits, misses)] accumulated so far. [misses] is the number of
    distinct (node, ball-labeling) pairs actually decoded. *)

(** {1 Cross-run sharing}

    A long-running process (the [lcp serve] daemon) pays the skeleton
    extraction and the table misses over and over if every certificate
    search builds a fresh cache. The shared pool keeps built caches
    across searches, keyed by an opaque caller-supplied string that
    must determine the verdict function completely: decoder identity,
    radius, alphabet, graph, identifiers and ports (labels excluded —
    they are the table's key dimension).

    A cache is a single-domain object, so the pool hands it out under
    an {e exclusive lease}: {!acquire} checks a key out, {!release}
    checks it back in, and acquiring a key that is currently leased
    falls back to a private unpooled cache (a missed reuse, never a
    data race). The pool mutex orders the hand-off, so a cache built
    on one domain may be reused from another after its lease cycles.

    Sharing is disabled by default; one-shot runs are unaffected. *)

type lease

val sharing_enabled : unit -> bool

val set_sharing : bool -> unit
(** Enable or disable the pool process-wide; disabling drops every
    pooled cache. *)

val shared_size : unit -> int
(** Number of pooled caches. *)

val clear_shared : unit -> unit
(** Drop every pooled cache (sharing stays enabled). *)

val acquire :
  key:string ->
  ?dense_limit:int ->
  ?shapes:bool ->
  radius:int ->
  accepts:(View.t -> bool) ->
  alphabet:string list ->
  Instance.t ->
  lease
(** Obtain a cache for [key]: the pooled one when sharing is enabled,
    the key is present and not currently leased (a {e warm} lease);
    a freshly built one otherwise (pooled under [key] when sharing is
    enabled and the key was absent, private otherwise). A pooled cache
    built for another [accepts] closure or another [shapes] setting is
    never handed out: the acquire gets a private cache instead. *)

val lease_cache : lease -> t
val lease_warm : lease -> bool
(** Was this lease satisfied by an already-built pooled cache? *)

val lease_stats : lease -> int * int
(** [(hits, misses)] accumulated {e during this lease} — the delta
    since {!acquire}, so per-run counters stay independent of how warm
    the pooled cache already was. *)

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
