(** Work-stealing domain pool for data-parallel loops.

    A dependency-free parallel execution substrate over OCaml 5 domains:
    {!create} spawns [domains - 1] worker domains (the submitting domain
    is the remaining worker), and the combinators fan indexed tasks out
    to them.  Every combinator takes an optional [?pool], and library
    code passes the one it was given straight through.  Without a pool
    a combinator is the plain loop its pooled run must equal: indices
    (or chunks) in ascending order, with no telemetry, no metrics and no
    task timing.  This module is the only place that decides between
    the two, so callers keep one implementation of their work.

    {b Scheduling.}  Each batch pre-places its chunk tasks onto
    per-domain Chase–Lev deques: the owning domain pops LIFO at the
    bottom with plain reads, other domains steal FIFO at the top
    through an [Atomic] compare-and-set, and only the race for a
    deque's last element takes a CAS on the owner's side.  A domain
    that drains its own deque hunts the others round-robin until a full
    scan finds every deque empty, so heterogeneous task costs spread
    across domains instead of gating the batch on the unluckiest one.
    Initial placement is a deterministic greedy weighted assignment
    (heaviest chunk first onto the least-loaded slot), so steals only
    pay for what the cost estimate got wrong.

    {b Cost-aware chunking.}  The combinators accept
    [?cost:(int -> int)], a relative per-index work estimate (any unit;
    values are clamped to [>= 1]).  With it, chunk boundaries equalize
    {e estimated cost} rather than index count, which matters when one
    index is ~100x another (DTW on long trajectories vs. short ones).
    Without it the historical fixed-length layout (at most 64 chunks)
    is used unchanged.

    {b Determinism.}  Chunk boundaries depend only on the input size,
    [?chunk] and [?cost] — never on the pool size or on scheduling.
    {!parallel_for} and {!parallel_map_array} only run pure-per-index
    work, so their output is identical to the plain loop;
    {!map_reduce_chunks} merges chunk results strictly in chunk order,
    so even non-commutative merges are bit-identical run to run, pool
    size to pool size, and with no pool at all.  Components that need randomness inside
    chunks should split one generator per chunk up front
    ({!Rng.split_n} over [Array.length (chunks n)]) so parallel runs
    stay reproducible from the seed.

    {b Discipline.}  One batch at a time per pool: the combinators are
    not reentrant (no nesting a parallel loop inside a task of the same
    pool) and a pool must not be shared by two concurrently-submitting
    owners.  Tasks must not touch the pool they run on.  These misuses
    raise [Invalid_argument] where detectable.

    {b Failures.}  If a task raises, tasks not yet started are
    cancelled, already-running ones finish, and the first exception is
    re-raised in the submitter with its backtrace.  The pool survives
    and can run further batches.

    {b Observability.}  When a {!Dbh_obs.Metrics} set is installed,
    every batch records its size, queue depth, per-task busy time, how
    many tasks each run served locally vs. by stealing
    ([dbh_pool_local_pops_total] / [dbh_pool_steals_total]) and the
    initial per-domain deque depths ([dbh_pool_deque_depth]).  With
    nothing installed the combinators run the raw task function — no
    timing wrapper, no allocation.  Independently of metrics, the pool
    keeps cheap per-domain {!telemetry} counters for benches and
    tests. *)

type t

val create : domains:int -> t
(** [create ~domains] is a pool of [domains] domains total ([domains -
    1] spawned workers plus the caller).  [domains >= 1]; [domains = 1]
    spawns nothing and runs every combinator inline.  Pools hold OS
    resources: call {!shutdown} (or use {!with_pool}) when done —
    OCaml caps the number of live domains. *)

val size : t -> int
(** Total domains, counting the caller.  At least 1. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent in effect; using the pool's
    combinators afterwards raises [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val parallel_for :
  ?pool:t -> ?chunk:int -> ?cost:(int -> int) -> int -> (int -> unit) -> unit
(** [parallel_for ?pool n f] runs [f i] for every [i] in [[0, n)],
    split into chunks across the pool's domains.  [f] must be safe to
    run concurrently for distinct [i] (e.g. writing only cell [i] of a
    result array).  [chunk] caps the chunk length (default: at most 64
    chunks); [cost i] estimates the relative work of index [i] so chunk
    boundaries equalize estimated cost instead of index count.  Without
    a pool it is [for i = 0 to n - 1 do f i done]. *)

val parallel_map_array :
  ?pool:t -> ?chunk:int -> ?cost:(int -> int) -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array ?pool f arr] is [Array.map f arr] with the
    applications spread over the pool.  [f] is applied exactly once per
    element; output order is the input order.  [cost i] estimates the
    work of element [i] of [arr].  Without a pool it is
    [Array.map f arr]. *)

val map_reduce_chunks :
  ?pool:t ->
  ?chunk:int ->
  ?cost:(int -> int) ->
  int ->
  map:(lo:int -> hi:int -> 'c) ->
  fold:('acc -> 'c -> 'acc) ->
  init:'acc ->
  'acc
(** [map_reduce_chunks ?pool n ~map ~fold ~init] computes
    [map ~lo ~hi] on each chunk of [[0, n)] in parallel, then folds the
    chunk results {e in chunk order} sequentially.  Because chunking
    ignores the pool size and the merge order is fixed, the result is
    bit-identical regardless of scheduling.  Without a pool it walks
    the same chunks in order and folds each one as soon as it is
    mapped, so [fold] sees the same groupings and only one chunk result
    is live at a time.  Note that [cost] moves chunk {e boundaries}, so
    a non-associative [fold] sees different groupings with and without
    it — pick one layout and keep it. *)

val chunks : ?chunk:int -> ?cost:(int -> int) -> int -> (int * int) array
(** The deterministic chunk decomposition [[(lo, hi); ...)] of [[0, n)]
    used by the combinators above.  Exposed so callers can pre-split
    per-chunk state — typically one {!Rng.t} per chunk via
    {!Rng.split_n} — before going parallel. *)

(** {1 Telemetry}

    Cheap per-domain counters accumulated across batches, independent
    of the metrics registry.  Each cell is written only by the domain
    owning that slot; read them only while no batch is in flight. *)

type telemetry = {
  local_pops : int array;  (** tasks served from the slot's own deque *)
  steals : int array;  (** tasks the slot stole from other deques *)
  busy_seconds : float array;  (** wall time spent inside task bodies *)
}

val telemetry : t -> telemetry
(** A snapshot (copies) of the per-domain counters since {!create} or
    the last {!reset_telemetry}.  For every batch,
    [sum local_pops + sum steals] equals the number of tasks run.
    Runs that a one-domain pool (or a one-task batch) executes inline
    count as local pops of slot 0. *)

val reset_telemetry : t -> unit
(** Zero the counters.  Call only while the pool is quiescent. *)
