(** Fixed-capacity max-heap keeping the [k] smallest keyed items.

    The standard accumulator for k-nearest-neighbor search: push every
    candidate with its distance; the heap retains the [k] best (smallest
    distance) seen so far, and {!threshold} exposes the current k-th best
    distance for pruning. *)

type 'a t

val create : int -> 'a t
(** [create capacity] is an empty heap retaining at most [capacity] items.
    [capacity] must be positive. *)

val capacity : 'a t -> int
val size : 'a t -> int

val threshold : 'a t -> float
(** Largest (worst) key currently retained, or [infinity] while the heap is
    not yet full.  A candidate with key [>= threshold] cannot enter a full
    heap. *)

val push : 'a t -> float -> 'a -> bool
(** [push t key v] inserts [(key, v)] if the heap has room or [key] beats
    the current worst retained key.  Returns whether the item was
    retained. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Retained items, best (smallest key) first.  Non-destructive. *)

val best : 'a t -> (float * 'a) option
(** Smallest-keyed retained item, or [None] when empty.  O(size). *)

val clear : 'a t -> unit
