(** Shared dynamic object store for DBH indexes.

    All indexes over one database (e.g. the levels of a hierarchical
    cascade) reference the same store, so an inserted object gets one id
    everywhere and a deletion hides it from every index at once.
    Deletion is by tombstone: ids are never reused and hash-table entries
    of deleted objects are simply skipped at query time. *)

type 'a t

val of_array : 'a array -> 'a t
(** A store seeded with the given objects (ids [0 .. n-1]); copies. *)

val length : 'a t -> int
(** Total ids ever allocated, including deleted ones. *)

val alive_count : 'a t -> int

val get : 'a t -> int -> 'a
val is_alive : 'a t -> int -> bool

val add : 'a t -> 'a -> int
(** Append an object; returns its id. *)

val delete : 'a t -> int -> unit
(** Tombstone an id (idempotent).  Raises on out-of-range ids. *)

val to_alive_array : 'a t -> (int * 'a) array
(** Alive (id, object) pairs in id order. *)
