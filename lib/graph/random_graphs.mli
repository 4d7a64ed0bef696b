(** Seeded random-graph generators for the large sampled workload.

    All generators run in O(n + m) through {!Graph.Builder} — no
    intermediate edge lists — and are deterministic in the supplied
    [Random.State.t]: the same seed yields the identical edge set.
    They complement the small-n conveniences in {!Builders}
    ([random_connected] there scans all n^2 pairs). *)

val preferential_attachment : Random.State.t -> int -> m:int -> Graph.t
(** Barabasi-Albert power-law graph: a seed clique on [m + 1] nodes,
    then each new node attaches to [m] distinct existing nodes drawn
    with probability proportional to degree (repeated-endpoint array).
    @raise Invalid_argument if [m < 1] or [n < m + 1]. *)

val of_model : Random.State.t -> nodes:int -> string -> (Graph.t, string) result
(** Parse the textual model grammar used by [lcp sample] and the large
    bench — [MODEL[:ARG]]: ["gnp"] (average degree 8), ["gnp:4.0"],
    ["ba"] (m = 4), ["ba:2"], ["tree"], ["grid"]. See {!model_syntax}.
    ["gnp:D"] is Erdos-Renyi G(n, p) with [p = D / (n - 1)], drawn by
    Batagelj-Brandes skip sampling: cost proportional to the number of
    edges drawn, not to n^2. ["tree"] is the random attachment tree
    (node [v] joins a uniform earlier node). *)

val model_syntax : string
(** One-line summary of every accepted model form, for usage errors. *)
