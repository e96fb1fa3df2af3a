(** Hierarchical DBH (paper Section V-A).

    Sample queries are ranked by their nearest-neighbor distance
    [D(Q, N(Q))] and split into [s] strata; a separate [(k_i, l_i)] pair
    is optimized for each stratum (queries with close neighbors tolerate
    much cheaper indexes) and a DBH index built for each, all sharing one
    hash family — and therefore one pivot-distance cache per query.

    Retrieval cascades through the strata in increasing [D_i] order and
    stops as soon as the best distance found is within the current
    stratum's radius [D_i], which certifies (statistically) that later,
    more expensive indexes are unnecessary for this query.

    Two plans: at [slack = 0] (the paper) each level is tuned on its
    stratum as if it ran alone; at [slack > 0] (the builder's default)
    the levels are tuned in cascade order, each on a model credited
    with what the levels before it already catch ({!Analysis.credit}):
    the lean cascade plan. *)

type level_info = {
  k : int;
  l : int;
  d_threshold : float;
      (** [D_i]: largest sample-query NN distance in stratum [i]. *)
  predicted_accuracy : float;
      (** The model's accuracy for stratum [i]'s sample queries: through
          this level alone at [slack = 0], through levels [0..i] (the
          cascade prediction) at [slack > 0]. *)
  predicted_cost : float;
      (** Predicted distances (lookups + hashing) of a stratum-[i]
          query, under the same model as [predicted_accuracy]. *)
}

type 'a t

val build :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  family:'a Hash_family.t ->
  db:'a array ->
  analysis:Analysis.t ->
  target_accuracy:float ->
  ?pivot_table:float array array ->
  ?levels:int ->
  ?k_min:int ->
  ?k_max:int ->
  ?l_max:int ->
  ?slack:float ->
  unit ->
  'a t
(** Build the cascade.  [levels] (the paper's [s]) defaults to 5, the
    value used in all the paper's experiments.  Strata whose accuracy
    target is unreachable within [l_max] fall back to the most accurate
    reachable setting.  Raises when [analysis] has fewer sample queries
    than [levels].  Every stratum's [(k,l)], fallback included, comes
    from {!Params.optimize} at [slack].

    [slack = 0.] (the default) is the paper's per-level optimizer: each
    stratum's own model, the argmin of Eq. 14.  [slack > 0.] is the lean
    cascade plan: level [i] is tuned on its stratum credited with levels
    [0..i-1] ({!Analysis.credit}), since a stratum-[i] query passes
    through them first, and takes the fewest tables within [slack] of
    that model's optimum.  Its [predicted_accuracy] is then the cascade
    prediction through level [i].

    [pool] fans each level's per-object hashing across domains (levels
    themselves stay sequential — they share the rng stream); the cascade
    is bit-identical to the sequential build for the same seed. *)

val levels : 'a t -> level_info array

val family : 'a t -> 'a Hash_family.t
(** The hash family shared by every level. *)

val store : 'a t -> 'a Store.t
(** The object store shared by all levels. *)

val indexes : 'a t -> 'a Index.t array
(** The per-level single-level indexes, in cascade order (shared with the
    cascade — do not mutate through both views concurrently). *)

val search : ?opts:Query_opts.t -> 'a t -> 'a -> 'a Index.result
(** Cascaded retrieval.  Stats aggregate across probed levels: hash cost
    counts distinct pivots overall (the family cache is shared), lookup
    cost counts distinct candidates overall (candidates reappearing in
    later levels are not recharged).  The result's
    [Index.levels_probed] reports how deep the cascade went.

    [opts.budget] caps total distance computations across the whole
    cascade (charged before each evaluation, so never exceeded); on
    exhaustion the result is best-so-far with [truncated = true].
    [opts.metrics]/[opts.trace] instrument the query — the cascade
    records once (per query, not per level); [opts.pool] is ignored. *)

val search_batch : ?opts:Query_opts.t -> 'a t -> 'a array -> 'a Index.result array
(** One cascaded {!search} per element, in input order, each under its
    own fresh budget of [opts.budget] distance computations — semantics
    identical to the per-query calls.  [opts.pool] fans the queries
    across domains; [opts.trace] is ignored (traces are single-domain
    by design). *)

(** {1 Dynamic updates} *)

val insert : 'a t -> 'a -> int
(** Append an object to the shared store and index it in every level;
    returns its id.  The levels share one pivot cache, so an insert costs
    at most one distance computation per pivot, whatever the level
    count.  [insert t x] is [insert_keyed t (key t x)]: when one of
    those distances is NaN, negative or +∞ it raises [Invalid_argument]
    before anything is stored. *)

type 'a keyed
(** An object hashed for every level of one cascade, not yet stored. *)

val key : 'a t -> 'a -> 'a keyed
(** The first half of {!insert}: pay the object's pivot distances and
    evaluate its hash functions, then check every distance paid
    ({!Hash_family.check_cache}).  Stores nothing, so a writer can
    journal the object between this and {!insert_keyed}. *)

val insert_keyed : 'a t -> 'a keyed -> int
(** The second half of {!insert}: store the object and index it in every
    level from its keys, at no further distance or hash cost.  [t] must
    be the cascade that keyed it. *)

val delete : 'a t -> int -> unit
(** Tombstone an id; it disappears from every level at once. *)

val compacted : 'a t -> 'a t
(** A cascade whose tables fold every level's insert delta into a fresh
    frozen base and drop tombstoned ids ({!Index.compacted} per level),
    sharing the store and family of [t], which is left untouched — for
    atomic publication.  Queries see identical candidates in both. *)

val delta_size : 'a t -> int
(** Entries sitting in the levels' insert deltas — the compaction
    pressure across the cascade. *)

(** {1 Persistence}

    Same conventions as {!Index.write}: one family and one store are
    written, followed by each level's tables; the space is re-attached on
    load. *)

val write : encode:('a -> string) -> Buffer.t -> 'a t -> unit

val write_packed : encode:('a -> string) -> Buffer.t -> 'a t -> unit
(** The v2 body: each level's live CSR arrays verbatim (delta folded,
    tombstones dropped) instead of the v1 bit-packed key blocks.  Loads
    without any re-bucketing.  Used by version-2 [Online.Durable]
    snapshots. *)

val read :
  decode:(string -> 'a) ->
  space:'a Dbh_space.Space.t ->
  Dbh_util.Binio.reader ->
  'a t

val read_any :
  decode:(string -> 'a) ->
  space:'a Dbh_space.Space.t ->
  Dbh_util.Binio.reader ->
  'a t
(** Accept a v1 or a v2 body by its format tag — the migration read
    path for durable snapshots. *)

val save : encode:('a -> string) -> path:string -> 'a t -> unit
(** Atomic, checksummed save — same guarantees as {!Index.save}. *)

val load : decode:(string -> 'a) -> space:'a Dbh_space.Space.t -> path:string -> 'a t
(** Envelope-verified load — raises [Dbh_util.Binio.Corrupt] on any
    corruption, like {!Index.load}. *)

(**/**)

(* The cascade behind [search], with the visibility bound a concurrent
   reader pins before probing: ids at or past [limit] are never admitted
   (Online passes its published count; [search] passes [max_int]). *)
val cascade : limit:int -> Query_opts.t -> 'a t -> 'a -> 'a Index.result
