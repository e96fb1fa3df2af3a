(** Deterministic pseudo-random number generation.

    Every stochastic component of the library threads an explicit generator
    so that index construction, dataset synthesis and experiments are
    reproducible from a single integer seed.  The generator is
    xoshiro256** seeded through splitmix64, which gives high-quality
    streams even from consecutive small seeds. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator from an integer seed.  Equal
    seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator starting at [t]'s current state. *)

val state : t -> int64 array
(** The four xoshiro256** state words, for persistence: a generator
    restored with {!of_state} continues the exact stream.  Used by the
    durability layer so that index maintenance replayed from a write-ahead
    log consumes the same random draws as the original run. *)

val of_state : int64 array -> t
(** Rebuild a generator from {!state} output.  Raises [Invalid_argument]
    unless given exactly four words with at least one non-zero (the
    all-zero state is a fixed point of xoshiro). *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are independent for practical purposes; use it to
    hand sub-components their own generators. *)

val split_n : t -> int -> t array
(** [split_n t n] is [n] fresh generators {!split} off [t] in order —
    one per parallel chunk, so that chunked computations consume
    independent streams while staying reproducible from the seed. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normally distributed sample (Box–Muller).  Defaults: [mu=0.],
    [sigma=1.]. *)

val exponential : t -> float -> float
(** [exponential t lambda] samples from Exp(lambda), [lambda > 0]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_index_weighted : t -> float array -> int
(** [choose_index_weighted t w] samples index [i] with probability
    proportional to [w.(i)].  Weights must be non-negative with a positive
    sum. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t m arr] is [m] distinct elements of [arr]
    in random order.  Requires [0 <= m <= Array.length arr]. *)

val sample_indices : t -> int -> int -> int array
(** [sample_indices t m n] is [m] distinct indices drawn from [\[0, n)].
    Requires [0 <= m <= n]. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [\[0, n)]. *)

val subsample : t -> int -> 'a array -> 'a array
(** [subsample t m arr] is like {!sample_without_replacement} when
    [m <= Array.length arr], and a copy of [arr] otherwise. *)
