(** The distance-based family of binary hash functions H_DBH
    (paper Section IV-A and V-B).

    Each binary function is a thresholded line projection

    {v h(x) = 1  iff  F^{X1,X2}(x) ∈ [t1, t2] v}

    where [X1, X2] are {e pivots} drawn from a small subset X_small of the
    database (Sec. V-B bounds the hashing cost by |X_small|), and the
    interval [\[t1,t2\]] is drawn from V(X1,X2) — the set of intervals
    capturing half the data mass (Eq. 6) — using the quantiles of the
    projections of a data sample.  The construction is the paper's and
    looks at the data only through those quantiles: pivot pairs are drawn
    uniformly from X_small, and each interval uniformly from V(X1,X2).

    Query-time evaluations share a {!cache} of distances from the query to
    the pivots, so evaluating any number of binary functions costs at most
    [num_pivots] distance computations — the paper's [HashCost]. *)

type binary_fn = private {
  p1 : int;  (** index of X1 in {!pivots} *)
  p2 : int;  (** index of X2 in {!pivots} *)
  d12 : float;  (** D(X1, X2), cached at construction *)
  t1 : float;  (** lower threshold (may be [neg_infinity]) *)
  t2 : float;  (** upper threshold (may be [infinity]) *)
  spread : float;
      (** interquartile range of the sample projections on this line —
          the scale used to normalize multi-probe bit margins *)
}

type 'a t

val make :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  space:'a Dbh_space.Space.t ->
  ?num_pivots:int ->
  ?threshold_sample:int ->
  ?max_functions:int ->
  'a array ->
  'a t
(** [make ~rng ~space data] builds the family from a database sample.

    - [num_pivots] (default 100): size of X_small, drawn uniformly from
      [data] without replacement (all of [data] when smaller).  The paper
      reports 100 pivots → C(100,2) = 4950 functions.
    - [threshold_sample] (default 500): how many objects are projected on
      each line to estimate the quantiles defining V(X1,X2).
    - [max_functions]: build only this many functions, on distinct
      pivot pairs drawn uniformly from the C(m,2); all of them by
      default.

    Where the distances come from: [make] computes them.  It pays the
    [num_pivots · threshold_sample] sample-to-pivot distances up front
    (each computed once and shared by every pair), then one pivot–pivot
    distance D(X1, X2) per pair as that pair's line is fit: C(m,2) for
    the whole family, [max_functions] under a cap.  {!make_with_table}
    runs the same fit over distances it reads from the database × pivot
    table instead.

    [pool] parallelizes the sample-to-pivot distances and the per-pair
    projection/sort work across domains; anything that consumes [rng]
    stays sequential in pair order, so the family is bit-identical to
    the sequential build for the same seed.

    Raises [Invalid_argument] when a distance it computes is NaN,
    negative or +∞, or when [data] has fewer than 2 distinct-distance
    objects (no usable projection line exists). *)

val make_with_table :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  space:'a Dbh_space.Space.t ->
  num_pivots:int ->
  threshold_sample:int ->
  max_functions:int option ->
  'a array ->
  'a t * float array array
(** [make_with_table ~rng ~space ... data] builds the family over [data]
    from the same rng draws and with the same fit as {!make}, paired
    with its {!pivot_table} over [data], at the cost of that table alone:
    [|data| · m] distances.  It draws X_small and the threshold sample,
    computes the table first (every entry checked, as {!pivot_table}
    does), and reads everything the fit needs from it: the sample's rows
    hold the sample-to-pivot distances, and the pivots' own rows every
    D(X1, X2).  The family is {!make}'s, bit for bit.  This is
    {!Builder.prepare}'s path. *)

val space : 'a t -> 'a Dbh_space.Space.t
val size : 'a t -> int
(** Number of binary functions in the family. *)

val num_pivots : 'a t -> int
val pivots : 'a t -> 'a array
(** The X_small array; do not mutate. *)

val fn : 'a t -> int -> binary_fn
(** The i-th binary function's definition.  The family stores its
    functions as flat unboxed arrays (pivot pairs, lines and thresholds,
    spreads), so this builds a fresh record on each call: a view for
    cold paths, not what evaluation reads. *)

(** {1 Evaluation} *)

type 'a cache
(** Per-object memo of distances to pivots.  The number of distances
    actually computed is the realized hashing cost for that object. *)

val cache : ?budget:Budget.t -> ?trace:Dbh_obs.Trace.t -> 'a t -> 'a -> 'a cache
(** [budget] makes [Budget.charge budget] run before every uncached
    pivot distance, so hashing stops (with [Budget.Exhausted]) the
    moment the budget runs out — partial hashing never overshoots.
    [trace] records a [Pivot_miss]/[Pivot_hit] event per lookup. *)

val cache_in :
  ?budget:Budget.t ->
  ?trace:Dbh_obs.Trace.t ->
  'a t ->
  dists:float array ->
  'a ->
  'a cache
(** Like {!cache} over a caller-owned workspace row of at least
    {!num_pivots} floats (re-initialised here), so repeated queries can
    recycle one allocation.  The row is borrowed until the cache is
    dropped.  Raises [Invalid_argument] when the row is too short. *)

val cache_cost : 'a cache -> int
(** Distinct pivot distances computed through this cache so far. *)

val cache_hits : 'a cache -> int
(** Pivot-distance lookups served from the cache (no distance paid). *)

val check_cache : caller:string -> 'a cache -> unit
(** Raise [Invalid_argument] (its message starts with [caller]) when a
    distance the cache has paid for was NaN, negative or +∞, naming
    which: "returned infinity" or "returned NaN or a negative value".
    Queries go on with such a distance (NaN projects to a 0 bit); an
    insert checks here before it stores anything. *)

val eval : 'a t -> 'a cache -> int -> bool
(** [eval family cache i] applies binary function [i]; costs at most two
    uncached distance computations. *)

val cache_with_distances : 'a t -> 'a -> float array -> 'a cache
(** A cache whose pivot distances are already known (one float per pivot,
    in pivot order): a row of {!pivot_table} or {!make_with_table}, which
    hold only finite distances, so evaluations through it cost no
    distance computations, {!cache_cost} stays 0 and the row is only
    read, never written.  Used to share the database × pivot table
    across the model's signatures and many index constructions. *)

val pivot_table : ?pool:Dbh_util.Pool.t -> 'a t -> 'a array -> float array array
(** [pivot_table t objs] computes the distances from every object to every
    pivot — [|objs|·|pivots|] distance computations, done once and reused
    via {!cache_with_distances} by every subsequent index build over the
    same database.  Each entry is checked as it is computed: a NaN,
    negative or +∞ distance raises [Invalid_argument].  [pool] spreads
    the rows (one per object) across domains; the table is identical
    either way. *)

val eval_direct : 'a t -> 'a -> int -> bool
(** Uncached evaluation (exactly two distance computations); for tests. *)

val margin : 'a t -> 'a cache -> int -> float
(** Distance from F(x) to the nearest threshold of function [i],
    normalized by the function's projection {!binary_fn.spread} — how
    close the object is to flipping this bit.  Small margins identify the
    bits a multi-probe query should perturb first. *)

(** {2 Family rows}

    A row memoizes one object's bits over the whole family — one cell
    per function: unknown, 0 or 1 — so a function is evaluated at most
    once per object however many tables and cascade levels draw it. *)

type row

val row : int -> row
(** [row n]: [n] cells, all unknown.  A row serves a family of at most
    [n] functions. *)

val row_length : row -> int

val eval_fns : 'a t -> 'a cache -> row -> int array -> unit
(** [eval_fns family cache row fn_ids] makes the cell of every function
    of [fn_ids] known, in order, evaluating only the cells still
    unknown: pivot distances are looked up in the same order as
    successive {!eval} calls over the first occurrence of each unknown
    function make them, so cache hits, misses, budget charges and trace
    events are identical to those; a known cell costs no lookup, no
    event and no budget.  Allocates nothing in steady state.  A budget
    that runs out leaves the function being evaluated unknown.  Raises
    [Invalid_argument] when the row is shorter than the family or an id
    is not a function of it. *)

val row_cells : row -> Bytes.t
(** The cells, for reading keys off: a known cell holds ['\000'] or
    ['\001'], the function's bit (see {!Key.of_row}); an unknown one
    holds another byte.  Do not write. *)

val clear_row : row -> unit
(** Make every cell unknown again, rewriting only the cells of the
    function rows evaluated since the last clear — O(functions
    evaluated), not O(family).  A row is reused across objects only
    through this. *)

(** {1 Sampling and signatures} *)

val sample_fn_indices : rng:Dbh_util.Rng.t -> 'a t -> int -> int array
(** [sample_fn_indices ~rng t n] draws [n] function indices uniformly
    {e with} replacement — how the index construction picks its k·l
    functions (Sec. IV-C). *)

val signature : 'a t -> fn_indices:int array -> 'a cache -> Dbh_util.Bitvec.t
(** Bits of the given functions applied to the cache's object — the raw
    material for empirical collision rates C(X1,X2) (Eq. 8).  Its pivot
    distances come through the cache: a {!cache} pays them, a
    {!cache_with_distances} reads them. *)

val balance : 'a t -> int -> 'a array -> float
(** [balance t i sample] is the fraction of [sample] that function [i]
    maps to 0 — should be close to 0.5 by construction (Eq. 6). *)

(** {1 Persistence}

    Families are written in a versioned binary format; objects go through
    a caller-supplied codec since the library cannot know their
    representation.  The space itself is not stored — supply an equivalent
    space when reading (using a different distance silently produces a
    different index).

    A v2 envelope carries a second, legacy tag: the name of the selector
    that built the family, from when a build could choose among
    constructions.  {!write} writes ["uniform"]; {!read} accepts the four
    names builds have written (["uniform"], ["median"], ["density"],
    ["nsh"]), since every construction wrote plain thresholded
    projections, and rejects any other.  v1 envelopes, which carry no
    such tag, are still readable. *)

val write : encode:('a -> string) -> Buffer.t -> 'a t -> unit

val read :
  decode:(string -> 'a) -> space:'a Dbh_space.Space.t -> Dbh_util.Binio.reader -> 'a t
(** Raises [Dbh_util.Binio.Corrupt] on malformed input, including an
    unknown legacy tag. *)
