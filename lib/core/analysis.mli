(** Statistical performance model of DBH (paper Section IV-C).

    Everything DBH knows about a space it learns from samples: for sample
    queries [Q] (drawn from the database, as in the paper's experiments)
    it estimates the collision rate [C(Q, N(Q))] with the true nearest
    neighbor and the rates [C(Q, X)] against a database sample.  Accuracy
    (Eq. 11) and lookup cost (Eq. 12) for any [(k,l)] then follow from
    the closed forms of {!Collision}, and the hashing cost from the pivot
    usage of the family.  All of this is offline; none of it touches the
    cost of online retrieval (Sec. IV-D). *)

type t
(** The fitted model: pure numbers, detached from the space. *)

val build :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  family:'a Hash_family.t ->
  db:'a array ->
  pivot_table:float array array ->
  query_indices:int array ->
  ?num_fns:int ->
  ?db_sample:int ->
  ?ground_truth:(int * float) array ->
  unit ->
  t
(** [build ~rng ~family ~db ~pivot_table ~query_indices ()] fits the
    model using the database objects at [query_indices] as sample
    queries.  [pivot_table] holds [db] × pivot distances of [family]'s
    pivots, one row per database object ({!Hash_family.pivot_table}, or
    {!Builder.prepare}'s table).

    - [num_fns] (default 250): functions sampled (with replacement) from
      the family to estimate collision rates.
    - [db_sample] (default 500): database objects sampled to estimate the
      lookup-cost sum of Eq. 12 (scaled to the full database size).
    - [ground_truth]: optional precomputed [(nn_index, nn_distance)] per
      sample query (self-matches excluded); brute force is used otherwise.

    Where the distances come from: the ground truth, when not supplied,
    scans the database from each sample query, [|queries| · (|db| − 1)]
    distances.  Signatures of the sample queries, their nearest
    neighbours and the database sample read the pivot table and cost
    nothing.  [pool] fans the ground-truth scans, signatures and
    per-query collision rows across domains; the fitted model is
    bit-identical to the sequential build for the same seed.  Raises [Invalid_argument] when [pivot_table]
    does not have one row per database object, or when a sample query
    has no nearest neighbour (every distance from it to another object
    is +∞ or NaN, or its [ground_truth] id is negative); the message
    names the query's database id. *)

val num_queries : t -> int
val db_size : t -> int

val nn_distance : t -> int -> float
(** Distance from sample query [i] to its true nearest neighbor. *)

val nn_collision : t -> int -> float
(** Estimated [C(Q_i, N(Q_i))]. *)

val accuracy : ?probes:int -> ?radius:int -> t -> k:int -> l:int -> float
(** Predicted retrieval accuracy (Eq. 11): mean over sample queries of
    [C_{k,l}(Q, N(Q))].  [probes]/[radius] (defaults [1]/[0]) are
    passed to {!Collision.c_kl}, which models the multi-probe cascade;
    at the defaults the estimate is bit-identical to the historical
    one.  On a {!credit}ed model it is the cascade's accuracy through
    this level: the mean of [1 − m(Q)·(1 − C_{k,l}(Q, N(Q)))], where
    [m(Q)] is the chance that [N(Q)] escaped every credited level. *)

val lookup_cost : ?probes:int -> ?radius:int -> t -> k:int -> l:int -> float
(** Predicted mean lookup cost (Eq. 12), scaled to the full database.
    Multi-probe raises it: probed buckets admit extra candidates at the
    probed per-table rate.  On a {!credit}ed model it counts the
    candidates of this level and the credited ones together, each
    object once. *)

val hash_cost : t -> k:int -> l:int -> float
(** Expected number of distinct pivots referenced by [k·l] functions
    drawn with replacement — the expected [HashCost_{k,l}] (Sec. V-B),
    never exceeding the number of pivots.  Multi-probe leaves this
    unchanged: extra probes reuse the base key's cached pivot
    distances.  On a {!credit}ed model the draws of the credited levels
    count too. *)

val total_cost : ?probes:int -> ?radius:int -> t -> k:int -> l:int -> float
(** [lookup_cost + hash_cost] (Eq. 13/14, averaged over queries). *)

val credit : t -> k:int -> l:int -> t
(** [credit t ~k ~l] models a cascade level that runs after a
    single-probe level [(k, l)] drawn from the same family, and after
    every level [t] already credits (Sec. V-A: a query of stratum [i]
    passes through levels [0..i]).  Levels draw their functions
    independently, so a pair at collision rate [c] escapes the credited
    levels with probability [Π_j (1 − C_{k_j,l_j}(c))] (Eq. 10);
    {!accuracy}, {!lookup_cost} and {!hash_cost} then price the union
    of those levels and the one asked about.  The credit depends on a
    pair only through its agreement count, so a credited model prices a
    [(k, l)] in O(num_fns).  Hierarchical DBH credits each level for the
    levels before it when its slack is positive.  Raises
    [Invalid_argument] unless [k >= 1] and [l >= 1]. *)

val restrict : t -> int array -> t
(** Model restricted to a subset of its sample queries (by position,
    [0 .. num_queries-1]) — used by hierarchical DBH to fit per-stratum
    parameters.  Keeps the credit of [t]. *)

val queries_by_nn_distance : t -> int array
(** Sample-query positions sorted by increasing [nn_distance] — the
    ranking used to stratify queries in Sec. V-A. *)
