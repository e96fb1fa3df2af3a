(** Hash sharding across N in-process {!Dbh.Online.Durable} shards.

    Each shard lives in its own subdirectory ([shard-00], [shard-01],
    …) with its own WAL, snapshot generations, rng stream and
    {!Dbh_robust.Breaker} — so one shard whose tables go bad degrades to
    its breaker's exact linear scan while the others keep serving from
    their indexes, and a crash recovers shard by shard.

    Writes route by content hash (CRC-32 of the encoded object) so
    resharding is deterministic from the bytes alone; searches fan out
    to {e every} shard and merge the per-shard nearest neighbors, which
    is what nearest-neighbor retrieval under hash placement requires.
    Global handles interleave shard-local ones ([local × n + shard]), so
    a handle names its shard without a lookup table.

    Thread discipline: one writer at a time ({!insert}/{!delete}/
    {!checkpoint} lock per-shard mutexes); {!search_many} may fan shards
    out over a pool, each shard's queries served sequentially on one
    task (the breaker is stateful).  The pool is {e not} handed to the
    shards' own indexes, so a breaker-forced rebuild inside a pool task
    can never re-enter the pool it runs on. *)

type query = {
  budget : int;  (** distance budget for this query (>= 1) *)
  probes : int;  (** probes per table; 0 = default single probe *)
  radius : int;  (** Hamming radius; 0 = single-probe *)
}

type answer = {
  nn : (int * float) option;  (** global handle and exact distance *)
  cost : int;  (** distance computations summed over shards *)
  truncated : bool;  (** some shard ran out of budget *)
  degraded : bool;  (** some shard served by its breaker's linear scan *)
}

type 'a t

val open_or_create :
  ?fsync:bool ->
  ?breaker_config:Dbh_robust.Breaker.config ->
  ?build:Dbh.Builder.config ->
  ?rebuild_factor:float ->
  seed:int ->
  shards:int ->
  target_accuracy:float ->
  space:'a Dbh_space.Space.t ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  dir:string ->
  ?data:'a array ->
  unit ->
  'a t * Dbh.Online.Durable.recovery array
(** Open (or create from [data], dealt round-robin so every shard gets a
    non-empty start) [shards] durable shards under [dir].  Raises
    [Invalid_argument] when [shards < 1], or when creating fresh shards
    with fewer data points than shards. *)

val size : 'a t -> int  (** alive objects, all shards *)

val search_many : ?pool:Dbh_util.Pool.t -> 'a t -> ('a * query) array -> answer array
(** One merged nearest-neighbor answer per input, in input order.  With
    a pool, shards run in parallel (one task per shard); answers are
    bit-identical to the sequential run. *)

val insert : 'a t -> 'a -> int
(** Journaled insert into the content-hash shard; returns the global
    handle. *)

val delete : 'a t -> int -> unit
(** Journaled delete by global handle (idempotent).  Raises
    [Invalid_argument] on a handle from a different shard count. *)

val checkpoint : ?kill:Dbh.Online.Durable.kill_point -> 'a t -> unit
(** Checkpoint every shard (compact + snapshot + fresh WAL).  [kill]
    injects a crash inside the {e first} shard's checkpoint, for
    recovery tests. *)

val close : 'a t -> unit  (** close every shard's WAL; idempotent *)

val stats_json : 'a t -> string
(** Per-shard JSON: size, generation, WAL debt, rebuilds, breaker
    state/trips/fallbacks. *)
