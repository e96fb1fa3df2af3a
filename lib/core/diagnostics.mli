(** Structural health checks for built indexes.

    DBH's performance model assumes balanced binary functions and
    reasonably spread buckets; this module measures what an index
    actually looks like so deployments can notice degenerate hash
    families (e.g. a distance measure that collapses to few values)
    before queries get slow. *)

type table_stats = {
  tables : int;  (** l *)
  bits_per_key : int;  (** k *)
  indexed_objects : int;  (** alive objects in the store *)
  non_empty_buckets : int;
  largest_bucket : int;
  mean_bucket : float;  (** mean occupancy of non-empty buckets *)
  largest_bucket_fraction : float;
      (** largest bucket / objects — near 1.0 means hashing collapsed *)
  delta_entries : int;
      (** entries inserted since the last freeze/compaction, still in
          the tables' mutable deltas *)
  directory_fill : float;
      (** non-empty buckets / (l · 2^k) — how much of the key space the
          directories actually use *)
  approx_table_bytes : int;
      (** rough resident bytes of the CSR tables (excludes objects,
          family, pivots) *)
}

val index_stats : 'a Index.t -> table_stats
val pp_table_stats : Format.formatter -> table_stats -> unit

type table_profile = {
  table : int;  (** table (row) number, [0 .. l-1] *)
  directory_keys : int;  (** keys holding a bucket in this table *)
  key_density : float;  (** directory keys / 2^k *)
  empty_bucket_rate : float;
      (** fraction of this table's buckets with no alive entry — what a
          probe can hit and find nothing; high rates are the sparsity
          regime where multi-probe pays *)
  mean_alive_bucket : float;  (** mean alive entries per bucket *)
}

val table_profiles : 'a Index.t -> table_profile array
(** One profile per table, in table order — the per-table breakdown
    behind {!table_stats} (which aggregates across tables and counts
    dead entries). *)

val pp_table_profile : Format.formatter -> table_profile -> unit

val bucket_histogram : 'a Index.t -> (int * int) array
(** Sorted [(bucket_size, bucket_count)] pairs aggregated across every
    table (dead entries included, like {!table_stats}). *)

val hierarchical_stats : 'a Hierarchical.t -> (Hierarchical.level_info * table_stats) array
(** Per-level structural stats of a cascade. *)

val family_balance_profile :
  rng:Dbh_util.Rng.t ->
  ?num_fns:int ->
  'a Hash_family.t ->
  'a array ->
  float * float * float
(** [(mean, min, max)] balance (fraction hashed to the zero bit) of
    [num_fns] (default 200) random binary functions over the given
    sample — should straddle 0.5 (Eq. 6). *)

val healthy : ?max_bucket_fraction:float -> table_stats -> bool
(** Quick verdict: some bucket spread exists and no bucket holds more
    than [max_bucket_fraction] (default 0.5) of the objects. *)
