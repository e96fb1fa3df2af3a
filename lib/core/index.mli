(** Single-level DBH index (paper Section IV-A, retrieval protocol of
    Section III applied to the DBH family).

    [l] hash tables, each keyed by the concatenation of [k] binary
    functions drawn uniformly with replacement from the family.  A query
    is hashed into each table; the union of the colliding buckets is the
    candidate set, which is then ranked by exact distance.  Reported cost
    follows the paper: distances to pivots actually computed (hash cost,
    bounded by |X_small|) plus distances to distinct candidates (lookup
    cost).

    Indexes are dynamic: objects live in a {!Store.t} that may be shared
    between several indexes (the hierarchical cascade shares one), and
    {!insert} / {!delete} maintain the tables incrementally. *)

type stats = {
  hash_cost : int;  (** distinct pivot distances computed for hashing *)
  lookup_cost : int;  (** distinct candidates compared exactly *)
  probes : int;  (** hash-table buckets inspected *)
}

val total_cost : stats -> int
(** [hash_cost + lookup_cost] — the paper's per-query number of distance
    computations. *)

val add_stats : stats -> stats -> stats

type 'a result = {
  nn : (int * float) option;
      (** Best candidate found: database id and exact distance; [None]
          when every bucket was empty. *)
  stats : stats;
  truncated : bool;
      (** [true] exactly when a distance budget ran out before the query
          completed — [nn] is then the best answer the paid-for
          computations could certify.  Always [false] without a budget. *)
  levels_probed : int;
      (** Cascade levels this query went through: always [1] for a
          single-level index; the hierarchical index reports how deep
          the cascade actually probed. *)
}

type 'a t

val build :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  family:'a Hash_family.t ->
  db:'a array ->
  ?pivot_table:float array array ->
  k:int ->
  l:int ->
  unit ->
  'a t
(** Construct the [l] [k]-bit tables over a fresh store seeded with [db].
    [1 <= k <= 62] (bucket keys are packed into an int) and [l >= 1].

    [pivot_table] — the output of [Hash_family.pivot_table family db] —
    supplies precomputed database-to-pivot distances, making construction
    distance-free; without it each database object pays up to one
    distance computation per pivot.

    [pool] fans the per-object hashing, then the per-table construction,
    across domains; each table's layout depends only on the keys, so the
    resulting index is bit-identical to the sequential build for the
    same seed. *)

val build_on :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  family:'a Hash_family.t ->
  store:'a Store.t ->
  ?pivot_table:float array array ->
  k:int ->
  l:int ->
  unit ->
  'a t
(** Like {!build} over an existing (possibly shared) store.  When given,
    [pivot_table] must have one row per store id. *)

val k : 'a t -> int
val l : 'a t -> int
val store : 'a t -> 'a Store.t
val family : 'a t -> 'a Hash_family.t

val size : 'a t -> int
(** Number of alive indexed objects. *)

val bucket_count : 'a t -> int
(** Total number of non-empty buckets across tables (diagnostic).
    O(1): maintained by the CSR tables.  Counts dead (tombstoned)
    entries until {!compacted}, as the list tables always did. *)

val largest_bucket : 'a t -> int
(** Size of the fullest bucket (diagnostic for balance) — O(1), dead
    entries included until {!compacted}. *)

val delta_size : 'a t -> int
(** Entries inserted since the last freeze/{!compacted}, still sitting
    in the tables' mutable deltas — the compaction-pressure signal. *)

val approx_table_words : 'a t -> int
(** Rough resident heap words of the tables (directory + offsets + ids
    + delta estimate); excludes store, family and pivots. *)

val compacted : 'a t -> 'a t
(** An index whose tables fold every insert delta into a fresh frozen
    CSR base and drop tombstoned ids, sharing the store, family and
    function choices of [t], which is left untouched — for publishing
    through an atomic pointer while concurrent readers drain the old
    tables.  Queries see identical candidates in both (dead ids were
    skipped, and never charged, either way); only the diagnostics
    differ — deltas empty, dead entries no longer counted. *)

val iter_buckets : 'a t -> (int -> int -> int list -> unit) -> unit
(** [iter_buckets t f] calls [f table key bucket] for every non-empty
    bucket, tables in order, keys ascending, each bucket in query
    iteration order (dead ids included).  Allocates the lists — cold
    paths only (diagnostics, migration, reference implementations). *)

(** {1 Queries}

    The canonical entry points are {!search} and {!search_batch},
    driven by one {!Query_opts.t} record (budget, pool, metrics, trace,
    multi-probe knobs).  Every query works in its domain's one
    workspace ({!Scratch}), so steady-state queries allocate no seen
    mask, candidate buffer or hash rows.

    When a metric set is reachable (explicit [opts.metrics] or an
    installed ambient set), every completed query records its logical
    cost — see {!Dbh_obs.Metrics}; with [opts.trace] the query also
    records its full event timeline (every query shape below). *)

val search : ?opts:Query_opts.t -> 'a t -> 'a -> 'a result
(** Approximate nearest neighbor of a query object.

    [opts.budget] caps the total distance computations (hashing +
    candidate comparisons) this query may spend.  The budget is charged
    before every evaluation, so the cap is never exceeded; when it runs
    out the result carries the best candidate found so far and
    [truncated = true].  [opts.pool] is ignored (single query).

    [opts.probes_per_table] with [opts.hamming_radius] turns on the
    multi-probe path ({!Query_opts.multiprobe}; in the spirit of Lv et
    al., cited as [11] in the paper): each table also probes its
    lowest-flip-penalty Hamming-adjacent buckets — the bits whose
    projections landed closest to a threshold flip first — trading a few
    extra bucket reads for recall that would otherwise require more
    tables, at no extra hashing cost.  At the defaults the query is
    bit-identical to the single-probe engine. *)

val search_batch : ?opts:Query_opts.t -> 'a t -> 'a array -> 'a result array
(** One {!search} per element, in input order.  [opts.budget] caps the
    distance computations of {e each} query separately (a fresh budget
    per query), so batched results — answers, stats, truncation flags —
    are exactly what the same per-query calls would return.
    [opts.pool] fans the queries across domains; queries only read the
    index, so the batch is safe and the results identical to the
    sequential run.  [opts.trace] is ignored: traces are single-domain
    by design. *)

val query_knn : ?opts:Query_opts.t -> 'a t -> int -> 'a -> (int * float) array * stats
(** [query_knn t m q]: the [m] best candidates (sorted by distance) from
    the colliding buckets; may return fewer when buckets are sparse.
    Honours every option of {!search} except [opts.budget]: a partial
    k-NN list has no best-so-far meaning, so a budget raises
    [Invalid_argument] instead of being silently dropped. *)

val query_range : ?opts:Query_opts.t -> 'a t -> float -> 'a -> (int * float) list * stats
(** Candidates within the given distance of the query (the near-neighbor
    flavour of Section III), sorted by distance.  Options as in
    {!query_knn} (a budget raises [Invalid_argument]). *)

val query_budgeted : ?opts:Query_opts.t -> 'a t -> max_candidates:int -> 'a -> 'a result
(** Like {!search}, but evaluates exact distances for at most
    [max_candidates] candidates, preferring those that collide in the
    most tables (higher empirical collision rate ⇒ higher model
    probability of being the nearest neighbor).  Caps the lookup cost at
    a known constant per query.  Options as in {!query_knn} (a budget
    raises [Invalid_argument]; [max_candidates] is this query's cap). *)

val candidates_into : 'a t -> 'a -> scratch:Scratch.t -> unit
(** [candidates_into t q ~scratch] marks the query's alive candidates —
    the union of its colliding buckets — into [scratch], in
    bucket-iteration order, readable from the scratch's candidate
    buffer; ids already marked are skipped, so successive calls (over
    indexes sharing a store) dedup across indexes.  Hashes [q] through
    the scratch's pivot and family rows at no budget, and clears the
    family row again; the scratch capacity must cover the store
    ([Scratch.ensure]).  For tests and diagnostics: the query entry
    points work in their domain's workspace and reset it themselves. *)

(** {1 Dynamic updates} *)

val insert : 'a t -> 'a -> int
(** Append a new object to the store and index it; returns its id.
    Costs at most one distance computation per pivot.  When the store is
    shared, other indexes do {e not} see the object until they
    {!index_existing} it. *)

val index_existing : 'a t -> int -> unit
(** Index an object already present in the (shared) store.  Idempotence
    is not checked — indexing twice duplicates the bucket entry. *)

val delete : 'a t -> int -> unit
(** Tombstone an id in the store: it stops being returned by {e any}
    index over that store.  O(1); table entries are skipped lazily. *)

(** {1 Persistence}

    The structural part of an index (family, objects, tables) is written
    in a versioned binary format; objects go through a caller-supplied
    codec, and the space is re-attached on load (it cannot be
    serialized).  Loading costs no distance computations. *)

val write : encode:('a -> string) -> Buffer.t -> 'a t -> unit

val read :
  decode:(string -> 'a) ->
  space:'a Dbh_space.Space.t ->
  Dbh_util.Binio.reader ->
  'a t
(** Raises [Dbh_util.Binio.Corrupt] on malformed input. *)

val save : encode:('a -> string) -> path:string -> 'a t -> unit
(** Write the index atomically: the serialized form is wrapped in a
    checksummed envelope ({!Dbh_persist.Envelope}) and reaches [path]
    via temp-file + fsync + rename, so a crash mid-save leaves any
    previous file at [path] intact. *)

val load : decode:(string -> 'a) -> space:'a Dbh_space.Space.t -> path:string -> 'a t
(** Verify the envelope checksums and decode.  Raises
    [Dbh_util.Binio.Corrupt] on any corruption — flipped bytes,
    truncation, trailing garbage, or a [decode] failure — and never
    returns a partially-read index. *)

(**/**)

(* The engine's pieces shared with the cascade (Hierarchical) and the
   other query surfaces: the setup/teardown every query runs inside, the
   key path a cascade insert shares across its levels, one cascade
   level, the one batch loop, and the one-stop metrics recording for a
   completed query (the robust layer's linear-scan fallback reports
   through it too). *)
type 'a query

val run :
  describe:('s -> string) ->
  's ->
  opts:Query_opts.t ->
  family:'a Hash_family.t ->
  store:'a Store.t ->
  limit:int ->
  'a ->
  ('a query -> unit) ->
  'a result
(* [run ~describe subject ~opts ~family ~store ~limit q body]: set up
   the query (budget, the domain's workspace, pivot cache), run [body],
   and tear down (workspace reset and given back, [Query_done],
   metrics).  [limit] bounds candidate admission to ids below it — the
   visibility bound a concurrent reader pins before probing; sequential
   callers pass [max_int].  Admission is also bounded by the store
   length read at query start. *)

val fill_row : 'a t -> 'a Hash_family.cache -> Hash_family.row -> unit
(* Make known the family-row cell of every function this index draws,
   through the pivot cache: the keys [index_cached] then reads. *)

val index_cached : 'a t -> 'a Hash_family.cache -> Hash_family.row -> int -> unit
(* [index_existing] through the caller's pivot cache and family row over
   the object: indexes sharing one family (the levels of a cascade)
   share both, so each pivot distance is paid and each hash function
   evaluated once per object, not once per index.  The row must hold no
   bits but this object's, and the id must be alive; neither is
   checked. *)

val cascade_level : 'a query -> 'a t -> level:int -> threshold:float -> bool
(* Mark one level's candidates (deduped against earlier levels), score
   them newest-first, and report whether the best so far is within
   [threshold]. *)

val batch :
  opts:Query_opts.t ->
  space:'a Dbh_space.Space.t ->
  (Query_opts.t -> 'a -> 'b) ->
  'a array ->
  'b array
(* [batch ~opts ~space search qs]: [search opts' q] per query, in order,
   sequentially or fanned over [opts.pool]. *)

val observe_query :
  ?metrics:Dbh_obs.Metrics.t ->
  ?seconds:float ->
  ?cache_hits:int ->
  ?nn_distance:float ->
  stats:stats ->
  truncated:bool ->
  levels_probed:int ->
  unit ->
  unit

(* Plumbing for composite indexes' persistence (used by Hierarchical):
   table structure without the family and store.  The v1 body packs keys
   at k bits per object and re-buckets on load; the packed (v2) body
   dumps the live CSR arrays and loads without re-bucketing. *)
val write_body : Buffer.t -> 'a t -> unit
val read_body :
  family:'a Hash_family.t -> store:'a Store.t -> Dbh_util.Binio.reader -> 'a t
val write_body_packed : Buffer.t -> 'a t -> unit
val read_body_packed :
  family:'a Hash_family.t -> store:'a Store.t -> Dbh_util.Binio.reader -> 'a t
val write_store : encode:('a -> string) -> Buffer.t -> 'a Store.t -> unit
val read_store : decode:(string -> 'a) -> Dbh_util.Binio.reader -> 'a Store.t
