(** Self-maintaining DBH index for evolving databases.

    The offline artifacts (hash family, statistical model, (k,l) choices)
    are fitted to a snapshot of the database; as objects are inserted and
    deleted they gradually go stale.  This wrapper owns a hierarchical
    index and transparently re-runs the whole offline pipeline once the
    database has grown or shrunk by a configurable factor since the last
    build — the standard doubling strategy, amortizing the rebuild cost
    over the updates that triggered it.

    Object handles returned by {!insert} (and inside query results) are
    {e stable}: they survive rebuilds. *)

type 'a t

type 'a result = 'a Index.result = {
  nn : (int * float) option;
      (** stable handle and exact distance of the best neighbor *)
  stats : Index.stats;
  truncated : bool;  (** a distance budget ran out mid-query *)
  levels_probed : int;
      (** cascade levels probed (0 when a degraded path bypassed the
          index entirely, e.g. a circuit breaker's linear scan) *)
}
(** {!Index.result}, with [nn] naming a stable handle rather than an
    internal id. *)

val create :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  space:'a Dbh_space.Space.t ->
  ?config:Builder.config ->
  ?rebuild_factor:float ->
  target_accuracy:float ->
  'a array ->
  'a t
(** Build over an initial non-empty database.  [rebuild_factor] (default
    2.0, must exceed 1.0) triggers a rebuild when the alive count leaves
    [(built / factor, built · factor)].

    [pool] is remembered: the initial build, every automatic rebuild and
    {!search_batch} fan out over it.  The pool must outlive this index (or
    rather, every rebuild and batch run through it).  Indexes built with
    and without a pool are bit-identical for the same seed. *)

val size : 'a t -> int
(** Alive objects. *)

val tombstones : 'a t -> int
(** Handles deleted since the last rebuild but still occupying registry
    slots (and, until {!compact}, table entries) — the space a rebuild
    or compaction would reclaim. *)

val delta_size : 'a t -> int
(** Table entries inserted since the last rebuild/compaction, still in
    the levels' mutable deltas ({!Hierarchical.delta_size}). *)

val compact : 'a t -> unit
(** Fold the insert deltas into the frozen table bases and drop
    tombstoned entries, without a rebuild (hash functions and handles
    are untouched; query answers are identical).  [Durable.checkpoint]
    runs this automatically before writing a snapshot. *)

val rebuilds : 'a t -> int
(** How many times the offline pipeline has re-run (0 right after
    {!create}). *)

val get : 'a t -> int -> 'a
(** Object behind a stable handle.  Raises [Invalid_argument] for dead or
    unknown handles. *)

val insert : 'a t -> 'a -> int
(** Add an object, returning its stable handle.  May trigger a rebuild
    (cost O(offline pipeline)); otherwise costs one incremental index
    insertion. *)

val delete : 'a t -> int -> unit
(** Remove by stable handle (idempotent).  May trigger a rebuild. *)

val search : ?opts:Query_opts.t -> 'a t -> 'a -> 'a result
(** Approximate nearest neighbor among alive objects.  [opts.budget]
    bounds the distance computations spent, as in {!Index.search};
    [opts.metrics]/[opts.trace] instrument the query.  [opts.pool] is
    ignored (single query).

    Reads are {e lock-free}: the whole query-visible generation (the
    cascade and the handle map) sits behind one atomic pointer, loaded
    once per query, and the single writer re-publishes it after every
    {!insert}/{!delete}/{!compact}/rebuild — so reader domains may call
    {!search}/{!search_batch} concurrently with one updating domain and
    always see an internally consistent generation, linearized at the
    pointer load.  Writers must still be serialized by the caller. *)

val search_batch : ?opts:Query_opts.t -> 'a t -> 'a array -> 'a result array
(** One {!search} per element, in input order, each under its own fresh
    budget of [opts.budget] distance computations.  Fans out over
    [opts.pool] when given, else over the pool remembered at {!create},
    else runs sequentially.  [opts.trace] is ignored.  The generation
    is pinned once for the whole batch (see {!search} on lock-free
    reads); a concurrent writer's updates land in later batches. *)

(** {1 Introspection and control}

    Hooks for operational wrappers (health monitors, circuit breakers)
    that need to look inside the running index or force maintenance. *)

val space : 'a t -> 'a Dbh_space.Space.t
(** The space this index was created over (queries and rebuilds go
    through it — wrap it before {!create} to instrument every distance). *)

val index : 'a t -> 'a Hierarchical.t
(** The current-generation hierarchical index (replaced wholesale on
    rebuild — do not cache across updates; read-only). *)

val alive_handles : 'a t -> int list
(** All alive stable handles, ascending. *)

val rng_state : 'a t -> int64 array
(** The four state words of the index's generator
    ({!Dbh_util.Rng.state}) — the bit-identity fingerprint: two indexes
    that evolved through the same operations (including replayed or
    replicated ones) have equal rng states exactly when their stochastic
    histories matched draw for draw. *)

val rebuild_now : 'a t -> unit
(** Re-run the whole offline pipeline immediately on the alive snapshot,
    regardless of the growth thresholds; counts toward {!rebuilds}.
    Handles remain stable.  Used by degradation wrappers to refresh an
    index whose structure went bad (e.g. after a spell of anomalous
    distances polluted its tables). *)

val retune :
  ?metrics:Dbh_obs.Metrics.t -> ?selector:Selector.t -> 'a t -> Hash_family.observations
(** Close the production loop: distill the observed [D(Q,N(Q))] strata
    and table hit rate from [metrics] (default: the installed set) via
    {!Hash_family.observations_of_metrics}, rebuild family + model +
    cascade with {!Hash_family.retune} — optionally switching
    [selector] — and hot-swap the new generation behind the published
    pointer.  Readers are never blocked and never see a torn state: one
    atomic store publishes the whole generation, exactly as
    {!compact}/rebuild do.  Handles remain stable; counts toward
    {!rebuilds}.  Returns the observation set the rebuild used (empty
    when no metrics were available).  Writer-side call — serialize it
    with other mutations. *)

type 'a online = 'a t

(** {1 Crash-safe durability}

    A durable index lives in a directory of numbered generations: each
    checkpoint writes a checksummed snapshot atomically and starts a
    fresh write-ahead log; every {!Durable.insert}/{!Durable.delete} is
    journaled (and fsynced) before it touches memory.  Reopening after a
    crash loads the newest snapshot that verifies — falling back to the
    previous generation when the newest is corrupt — and replays the log
    chain, truncating a torn tail.  The snapshot carries the generator
    state, so a reopened index answers queries {e bit-for-bit}
    identically to one that never restarted, including any rebuilds the
    replay triggers.

    The object codec must round-trip: [decode (encode x)] must behave
    exactly like [x] under the space's distance (and re-encode to the
    same bytes for the equivalence guarantee to be exact).  The same
    [config], [rebuild_factor] and [target_accuracy] must be passed on
    every open — they are intentionally not stored, so deployments can
    retune them, at the cost of exact replay equivalence when they
    change. *)

module Durable : sig
  type 'a t
  (** A durable handle: an {!type:online} index plus its directory, log
      and generation bookkeeping. *)

  type kill_point = After_snapshot | After_wal_switch

  exception Killed of kill_point
  (** Raised by {!checkpoint} at the requested {!kill_point} — a crash
      injected between the checkpoint's steps, for recovery tests. *)

  type recovery = {
    source : [ `Fresh | `Snapshot of int | `Rebuilt ];
        (** Where the state came from: a brand-new index over [~data], a
            verified snapshot generation, or a rebuild from [~data]
            after every snapshot failed verification. *)
    generation : int;  (** Active generation after recovery. *)
    replayed_ops : int;  (** WAL records re-applied. *)
    torn_tail : bool;  (** A log ended mid-record and was truncated. *)
    skipped : (int * string) list;
        (** Snapshot generations that failed verification, with why. *)
  }

  val open_or_create :
    ?pool:Dbh_util.Pool.t ->
    ?fsync:bool ->
    rng:Dbh_util.Rng.t ->
    space:'a Dbh_space.Space.t ->
    ?config:Builder.config ->
    ?rebuild_factor:float ->
    target_accuracy:float ->
    encode:('a -> string) ->
    decode:(string -> 'a) ->
    dir:string ->
    ?data:'a array ->
    unit ->
    'a t * recovery
  (** Open the index stored in [dir], creating [dir] if needed.  With no
      loadable snapshot, builds a fresh index from [~data] (raising
      [Invalid_argument] when [dir] is empty and no data is given, and
      [Dbh_util.Binio.Corrupt] when snapshots exist but all fail
      verification and no data is given — degraded recovery never
      silently serves wrong answers).  [rng] seeds a fresh build only;
      a loaded snapshot restores its own generator state.  [fsync]
      (default [true]) controls per-operation log durability. *)

  val insert : ?trace:Dbh_obs.Trace.t -> 'a t -> 'a -> int
  (** Journal the insert to the WAL (durably, when [fsync]) and then
      apply it.  Same contract as {!val:insert} otherwise.  [trace]
      records a [Wal_append] event with the journaled record size. *)

  val delete : ?trace:Dbh_obs.Trace.t -> 'a t -> int -> unit
  (** Journal and apply a delete; idempotent like {!val:delete}. *)

  val search : ?opts:Query_opts.t -> 'a t -> 'a -> 'a result
  val search_batch : ?opts:Query_opts.t -> 'a t -> 'a array -> 'a result array

  val get : 'a t -> int -> 'a
  val size : 'a t -> int

  val checkpoint : ?kill:kill_point -> ?trace:Dbh_obs.Trace.t -> 'a t -> unit
  (** Write a new snapshot generation atomically, switch to a fresh WAL,
      and prune generations older than the previous one.  A crash at any
      point (exercised via [?kill]) leaves the directory recoverable to
      exactly the pre- or post-checkpoint state.  When a metric set is
      installed, records checkpoint count, duration and snapshot size;
      [trace] adds a [Checkpoint] event. *)

  val close : 'a t -> unit
  (** Flush and close the WAL.  Deliberately does {e not} checkpoint, so
      reopening exercises replay; call {!checkpoint} first to make
      reopening cheap.  Idempotent; other operations raise after. *)

  val online : 'a t -> 'a online
  (** The live in-memory index — read-only access; mutate only through
      this module or the journal will miss operations. *)

  val generation : 'a t -> int
  val wal_ops : 'a t -> int
  (** Operations sitting in the current WAL since the last checkpoint —
      the replay debt a reopen would pay. *)

  val dir : 'a t -> string

  val verify_snapshot : path:string -> int * int
  (** Structurally verify a snapshot file without opening the index or
      computing any distance: envelope checksums, then every internal
      invariant (handle maps, liveness agreement, level structure).
      Accepts both snapshot formats — version 1 (bit-packed key blocks)
      and version 2 (packed CSR arrays); new snapshots are written as
      version 2, so opening a v1 directory and checkpointing migrates it.
      Returns [(total_handles, alive)].  Raises [Dbh_util.Binio.Corrupt]
      on any failure. *)

  type snapshot_info = {
    format_version : int;  (** 1 (legacy key blocks) or 2 (packed CSR) *)
    registry_len : int;  (** total handles ever issued *)
    dead_handles : int;  (** tombstoned handles at snapshot time *)
    cascade : string Hierarchical.t;
        (** the snapshot's cascade, structurally decoded with an identity
            codec and a space whose distance must never be called — for
            table statistics only, never for queries *)
  }

  val inspect_snapshot : path:string -> snapshot_info
  (** Decode a snapshot for offline diagnostics ([dbh-cli index-stats])
      without the real codec or space.  Same validation as
      {!verify_snapshot}.  Raises [Dbh_util.Binio.Corrupt] on any
      corruption. *)

  (**/**)

  (* Internal hooks for the replica layer (dbh.replica) — not a stable
     API.  [load_newest_snapshot] is recovery's loader: the newest
     snapshot in [dir] that passes full structural validation, with the
     generations skipped on the way (newest first, with why);
     [apply_record] applies one WAL record exactly as recovery replay
     would; [attach] turns an online index into a leader over [dir] by
     writing snapshot [generation] plus a fresh WAL — the promotion
     fence. *)

  val load_newest_snapshot :
    ?pool:Dbh_util.Pool.t ->
    space:'a Dbh_space.Space.t ->
    ?config:Builder.config ->
    ?rebuild_factor:float ->
    target_accuracy:float ->
    decode:(string -> 'a) ->
    dir:string ->
    unit ->
    (int * 'a online) option * (int * string) list

  val apply_record : decode:(string -> 'a) -> 'a online -> string -> unit

  val attach :
    ?fsync:bool ->
    encode:('a -> string) ->
    decode:(string -> 'a) ->
    dir:string ->
    generation:int ->
    'a online ->
    'a t

  (**/**)
end
