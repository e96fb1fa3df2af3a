(** A hash table frozen into CSR form + a mutable insert delta.

    The frozen base is three flat int arrays — sorted key directory,
    bucket offsets, concatenated bucket ids — with zero per-bucket
    boxing.  A derived prefix table, about one cell per eight directory
    keys and addressed by a key's top bits, narrows every lookup to one
    cell's short run of keys before a binary search; it is rebuilt in
    one pass whenever a base is frozen, compacted or read, and never
    written ({!write} stores the three arrays verbatim).  Post-freeze
    inserts accumulate in a small delta (a persistent map from key to
    an id list); {!compacted} folds them (and drops dead ids) into a
    fresh table's base.  A two-word bit filter over the delta's keys,
    held in the table record, lets a lookup of a key the delta lacks
    skip the map in most cases; it never gives a false negative.

    A bucket iterates delta first (newest first), then the frozen
    segment, which {!of_keys} lays out newest first too.  A table built
    over ids [0..n-1] therefore iterates exactly like one built over a
    prefix with the remaining ids {!add}ed in order — the historical
    cons-list order, and the bit-identity guarantee the query layer
    depends on.

    {b Single-writer concurrent reads.}  The frozen base never changes
    and the delta is a persistent map, so a reader racing a single
    writer sees, for each key, either the before or the after bucket —
    both valid bucket sets (an insert sets the key's filter bit, then
    pointer-swaps the delta, and a bit once set stays set).  A reader
    that must see a given insert needs a happens-before edge from it,
    such as [Online]'s visibility bound.  Writers must still be
    serialized externally. *)

type t

val of_keys : ids:int array -> keys:int array -> t
(** [of_keys ~ids ~keys] freezes the table in which [ids.(p)] sits under
    the non-negative key [keys.(p)]: the directory ascends and each
    bucket lists its ids by descending position — newest first when
    [ids] ascend, exactly what consing the ids onto list buckets in
    position order and freezing those gave.  An LSD radix sort orders
    the positions, so no per-bucket structure is allocated.  Raises
    [Invalid_argument] when the lengths differ or a key is negative. *)

val add : t -> int -> int -> unit
(** [add t key id] prepends [id] to [key]'s delta bucket. *)

val iter_bucket : t -> int -> (int -> unit) -> unit
(** Iterate one combined bucket in query order (delta newest-first, then
    frozen segment).  No-op for an absent key.  Every probe a query
    makes, base key or multi-probe neighbour, reads its bucket here. *)

val bucket_size : t -> int -> int
(** Combined entries under a key, dead included (trace/diagnostics). *)

val bucket_count : t -> int
(** Non-empty combined buckets — O(1). *)

val largest_bucket : t -> int
(** Max combined bucket size ever reached since the freeze (dead entries
    included, like the list tables before) — O(1). *)

val entry_count : t -> int
(** Total entries, frozen + delta, dead included. *)

val delta_size : t -> int
(** Entries sitting in the delta — the compaction-pressure signal. *)

val iter_buckets : t -> (int -> int list -> unit) -> unit
(** Every combined bucket in ascending key order; each bucket
    materialised as a list in query order.  Allocates — cold paths only
    (persistence, diagnostics, rebuild). *)

val compacted : is_alive:(int -> bool) -> t -> t
(** A fresh fully-frozen table with an empty delta: the delta folded
    into the frozen base, ids for which [is_alive] is false and
    then-empty buckets dropped.  [t] is left untouched — for callers
    that publish the result through an atomic pointer while concurrent
    readers drain the old table.  Bucket-internal order is preserved,
    so queries see identical candidates in both (dead ids were skipped,
    and never charged, either way). *)

val approx_words : t -> int
(** Rough resident heap words (arrays, prefix cells included, + delta
    estimate). *)

val write : Buffer.t -> is_alive:(int -> bool) -> t -> unit
(** Serialize the live view (delta folded, dead dropped). *)

val read :
  Dbh_util.Binio.reader ->
  validate_key:(int -> unit) ->
  max_id:int ->
  seen:Bytes.t ->
  t
(** Read and validate one frozen table: directory strictly sorted and
    every key accepted by [validate_key]; offsets monotone and covering;
    ids in [0, max_id) with no duplicate inside the table ([seen] is a
    caller-provided store-length workspace, reset here).  Raises
    [Dbh_util.Binio.Corrupt] on any violation. *)
