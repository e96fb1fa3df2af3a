(** The well-known DBH metric set.

    One {!t} bundles every counter, gauge and histogram the library's
    hot paths know how to record — query costs broken down the way the
    paper reports them (hash distances, lookup distances, probes,
    cascade levels), pivot-cache effectiveness, build costs, guard and
    breaker activity, WAL/checkpoint durability costs, and domain-pool
    utilization — all registered on a single {!Registry.t} under
    [dbh_]-prefixed names.

    {b Ambient installation.}  Instrumented code resolves its metrics
    as: the explicit [?metrics] argument if given, otherwise the
    globally {!install}ed set, otherwise nothing.  With nothing
    installed the record path is a single [Atomic.get] returning [None],
    so uninstrumented runs stay at their previous speed.

    {b Semantics of the query counters.}  [queries_total] and the
    per-query cost counters are recorded once per completed query by the
    serving entry point ([Index.search], [Hierarchical.search], the
    breaker's linear fallback), from the query's own [stats] — never
    from raw distance calls — so [distance_computations_total] equals
    the sum of per-query [total_cost] exactly, and logical counters are
    identical between sequential and multi-domain runs of the same
    workload. *)

type t = {
  registry : Registry.t;
  (* queries *)
  queries_total : Registry.counter;
  queries_truncated_total : Registry.counter;
  distance_computations_total : Registry.counter;
      (** per-query [total_cost] (hash + lookup), summed *)
  hash_distance_computations_total : Registry.counter;
  lookup_distance_computations_total : Registry.counter;
  bucket_probes_total : Registry.counter;
  levels_probed_total : Registry.counter;
  pivot_cache_hits_total : Registry.counter;
  pivot_cache_misses_total : Registry.counter;
  query_cost : Registry.histogram;  (** per-query total distance computations *)
  query_seconds : Registry.histogram;
  query_nn_distance : Registry.histogram;
      (** observed D(Q, N(Q)) per answered query *)
  (* spaces *)
  space_distance_calls_total : Registry.counter;
      (** raw calls through {!Dbh_space.Space.observed} spaces (includes
          build-time and ground-truth work — deliberately wider than
          [distance_computations_total]) *)
  (* guard *)
  guard_calls_total : Registry.counter;
  guard_anomalies_nan_total : Registry.counter;
  guard_anomalies_pos_inf_total : Registry.counter;
  guard_anomalies_neg_inf_total : Registry.counter;
  guard_anomalies_negative_total : Registry.counter;
  guard_anomalies_exn_total : Registry.counter;
  (* breaker *)
  breaker_trips_total : Registry.counter;
  breaker_recoveries_total : Registry.counter;
  breaker_fallback_queries_total : Registry.counter;
  (* online maintenance *)
  online_inserts_total : Registry.counter;
  online_deletes_total : Registry.counter;
  online_rebuilds_total : Registry.counter;
  online_rebuild_failures_total : Registry.counter;
      (** automatic rebuilds an update triggered that the build rejected
          ([Invalid_argument]); the update stands and the previous
          generation keeps serving (see {!Dbh.Online.insert}) *)
  (* durability *)
  wal_appends_total : Registry.counter;
  wal_records_replayed_total : Registry.counter;
  checkpoints_total : Registry.counter;
  snapshot_bytes : Registry.gauge;  (** size of the newest snapshot written *)
  fsync_seconds : Registry.histogram;
  checkpoint_seconds : Registry.histogram;
  (* pool *)
  pool_batches_total : Registry.counter;
  pool_tasks_total : Registry.counter;
  pool_queue_depth : Registry.gauge;  (** tasks of the batch currently being drained *)
  pool_task_seconds : Registry.histogram;  (** per-domain busy time, one sample per task *)
  pool_steals_total : Registry.counter;
      (** tasks a domain obtained by stealing from another domain's deque *)
  pool_local_pops_total : Registry.counter;
      (** tasks a domain popped from its own deque *)
  pool_deque_depth : Registry.gauge array;
      (** per-domain deque depth, labeled [domain="i"]; pools wider than
          the fixed slot count leave the extra domains unreported *)
  (* replication *)
  replica_applied_total : Registry.counter;
  replica_retries_total : Registry.counter;
      (** polls that backed off on a torn or stalled WAL tail *)
  replica_reopens_total : Registry.counter;
      (** full reopens after the tailed state was truncated or replaced *)
  replica_promotions_total : Registry.counter;
  replica_lag_records : Registry.gauge;
      (** leader records visible on disk but not yet applied *)
  replica_lag_seconds : Registry.gauge;
      (** whole seconds of staleness against the newest leader WAL write
          (0 when caught up) *)
}

val create : unit -> t
(** A fresh metric set on a fresh registry. *)

val on : Registry.t -> t
(** Register the metric set on an existing registry.  Raises
    [Invalid_argument] if (some of) the names are already taken. *)

(** {1 Ambient metrics} *)

val install : t -> unit
(** Make this set the process-wide default that instrumented code falls
    back to when no explicit [?metrics] is given.  Replaces any
    previously installed set. *)

val get : unit -> t option
(** The installed set, if any — one [Atomic.get]. *)

val resolve : t option -> t option
(** [resolve explicit] is [explicit] when given, else {!get} [()]. *)

val with_installed : t -> (unit -> 'b) -> 'b
(** Install, run, restore whatever was installed before — for tests and
    CLI runs. *)

val now : unit -> float
(** Monotonic-enough wall clock used for the duration histograms. *)
