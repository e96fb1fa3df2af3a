type t = {
  registry : Registry.t;
  queries_total : Registry.counter;
  queries_truncated_total : Registry.counter;
  distance_computations_total : Registry.counter;
  hash_distance_computations_total : Registry.counter;
  lookup_distance_computations_total : Registry.counter;
  bucket_probes_total : Registry.counter;
  levels_probed_total : Registry.counter;
  pivot_cache_hits_total : Registry.counter;
  pivot_cache_misses_total : Registry.counter;
  query_cost : Registry.histogram;
  query_seconds : Registry.histogram;
  query_nn_distance : Registry.histogram;
  space_distance_calls_total : Registry.counter;
  guard_calls_total : Registry.counter;
  guard_anomalies_nan_total : Registry.counter;
  guard_anomalies_pos_inf_total : Registry.counter;
  guard_anomalies_neg_inf_total : Registry.counter;
  guard_anomalies_negative_total : Registry.counter;
  guard_anomalies_exn_total : Registry.counter;
  breaker_trips_total : Registry.counter;
  breaker_recoveries_total : Registry.counter;
  breaker_fallback_queries_total : Registry.counter;
  online_inserts_total : Registry.counter;
  online_deletes_total : Registry.counter;
  online_rebuilds_total : Registry.counter;
  online_rebuild_failures_total : Registry.counter;
  wal_appends_total : Registry.counter;
  wal_records_replayed_total : Registry.counter;
  checkpoints_total : Registry.counter;
  snapshot_bytes : Registry.gauge;
  fsync_seconds : Registry.histogram;
  checkpoint_seconds : Registry.histogram;
  pool_batches_total : Registry.counter;
  pool_tasks_total : Registry.counter;
  pool_queue_depth : Registry.gauge;
  pool_task_seconds : Registry.histogram;
  pool_steals_total : Registry.counter;
  pool_local_pops_total : Registry.counter;
  pool_deque_depth : Registry.gauge array;
  replica_applied_total : Registry.counter;
  replica_retries_total : Registry.counter;
  replica_reopens_total : Registry.counter;
  replica_promotions_total : Registry.counter;
  replica_lag_records : Registry.gauge;
  replica_lag_seconds : Registry.gauge;
}

let cost_buckets =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000. |]

(* Distances are dataset-scale-free, so the nn-distance strata use wide
   log-spaced bounds. *)
let distance_buckets =
  [| 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.;
     200.; 500.; 1000. |]

(* Fixed label space for the per-domain deque gauges: registries are
   built before any pool exists, so the domain dimension is bounded up
   front.  Pools wider than this simply leave the extra slots
   unreported. *)
let pool_depth_slots = 8

let on registry =
  let counter ?labels name help = Registry.counter registry ~help ?labels name in
  let gauge name help = Registry.gauge registry ~help name in
  let histogram ?buckets name help = Registry.histogram registry ~help ?buckets name in
  let anomaly kind = counter ~labels:[ ("kind", kind) ] "dbh_guard_anomalies_total"
      "anomalous distances intercepted by the guard, by kind" in
  {
    registry;
    queries_total = counter "dbh_queries_total" "completed NN queries";
    queries_truncated_total =
      counter "dbh_queries_truncated_total" "queries cut short by a distance budget";
    distance_computations_total =
      counter "dbh_distance_computations_total"
        "per-query distance computations (hash + lookup), summed over queries";
    hash_distance_computations_total =
      counter "dbh_hash_distance_computations_total" "pivot distances computed for hashing";
    lookup_distance_computations_total =
      counter "dbh_lookup_distance_computations_total" "exact candidate comparisons";
    bucket_probes_total = counter "dbh_bucket_probes_total" "hash-table buckets inspected";
    levels_probed_total = counter "dbh_levels_probed_total" "cascade levels probed";
    pivot_cache_hits_total =
      counter "dbh_pivot_cache_hits_total" "pivot distances served from the query cache";
    pivot_cache_misses_total =
      counter "dbh_pivot_cache_misses_total" "pivot distances actually computed at query time";
    query_cost =
      histogram ~buckets:cost_buckets "dbh_query_cost"
        "distribution of per-query total distance computations";
    query_seconds = histogram "dbh_query_seconds" "per-query wall time";
    query_nn_distance =
      histogram ~buckets:distance_buckets "dbh_query_nn_distance"
        "observed distance from each answered query to its returned neighbor";
    space_distance_calls_total =
      counter "dbh_space_distance_calls_total"
        "raw distance calls through observed spaces (build + query + baselines)";
    guard_calls_total = counter "dbh_guard_calls_total" "distance calls through guarded spaces";
    guard_anomalies_nan_total = anomaly "nan";
    guard_anomalies_pos_inf_total = anomaly "pos_inf";
    guard_anomalies_neg_inf_total = anomaly "neg_inf";
    guard_anomalies_negative_total = anomaly "negative";
    guard_anomalies_exn_total = anomaly "exn";
    breaker_trips_total = counter "dbh_breaker_trips_total" "circuit-breaker trips into open";
    breaker_recoveries_total =
      counter "dbh_breaker_recoveries_total" "circuit-breaker recoveries into closed";
    breaker_fallback_queries_total =
      counter "dbh_breaker_fallback_queries_total" "queries served by the exact linear scan";
    online_inserts_total = counter "dbh_online_inserts_total" "online index insertions";
    online_deletes_total = counter "dbh_online_deletes_total" "online index deletions";
    online_rebuilds_total =
      counter "dbh_online_rebuilds_total" "offline pipeline re-runs of the online index";
    online_rebuild_failures_total =
      counter "dbh_online_rebuild_failures_total"
        "automatic rebuilds of the online index that the build rejected";
    wal_appends_total = counter "dbh_wal_appends_total" "records appended to write-ahead logs";
    wal_records_replayed_total =
      counter "dbh_wal_records_replayed_total" "WAL records re-applied during recovery";
    checkpoints_total = counter "dbh_checkpoints_total" "durable snapshots written";
    snapshot_bytes = gauge "dbh_snapshot_bytes" "size of the newest snapshot file";
    fsync_seconds = histogram "dbh_fsync_seconds" "WAL fsync latency";
    checkpoint_seconds = histogram "dbh_checkpoint_seconds" "checkpoint duration";
    pool_batches_total = counter "dbh_pool_batches_total" "task batches submitted to domain pools";
    pool_tasks_total = counter "dbh_pool_tasks_total" "tasks executed by domain pools";
    pool_queue_depth = gauge "dbh_pool_queue_depth" "tasks in the batch currently draining";
    pool_task_seconds = histogram "dbh_pool_task_seconds" "per-task busy time on pool domains";
    pool_steals_total =
      counter "dbh_pool_steals_total" "pool tasks obtained by stealing from another domain";
    pool_local_pops_total =
      counter "dbh_pool_local_pops_total" "pool tasks served from the owning domain's deque";
    pool_deque_depth =
      Array.init pool_depth_slots (fun d ->
          Registry.gauge registry
            ~help:"tasks waiting in a domain's work-stealing deque"
            ~labels:[ ("domain", string_of_int d) ]
            "dbh_pool_deque_depth");
    replica_applied_total =
      counter "dbh_replica_applied_total" "WAL records applied by the replica";
    replica_retries_total =
      counter "dbh_replica_retries_total" "replica polls backed off on a torn or stalled tail";
    replica_reopens_total =
      counter "dbh_replica_reopens_total"
        "full replica reopens after the leader truncated or replaced the tailed state";
    replica_promotions_total =
      counter "dbh_replica_promotions_total" "followers promoted to leader";
    replica_lag_records =
      gauge "dbh_replica_lag_records" "leader records visible on disk but not yet applied";
    replica_lag_seconds =
      gauge "dbh_replica_lag_seconds"
        "whole seconds since the newest leader WAL write the replica has not caught up to";
  }

let create () = on (Registry.create ())

let installed : t option Atomic.t = Atomic.make None

let install m = Atomic.set installed (Some m)
let get () = Atomic.get installed
let resolve = function Some _ as m -> m | None -> get ()

let with_installed m f =
  let previous = Atomic.get installed in
  install m;
  Fun.protect ~finally:(fun () -> Atomic.set installed previous) f

let now = Unix.gettimeofday
