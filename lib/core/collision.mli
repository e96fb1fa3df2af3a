(** Collision probabilities (paper Eq. 8–10).

    [C(X1,X2)] is the probability that a binary function drawn uniformly
    from the family hashes [X1] and [X2] to the same bit.  From it follow
    the k-bit table collision probability [C_k = C^k] (Eq. 9) and the
    probability of colliding in at least one of [l] tables
    [C_{k,l} = 1 − (1 − C^k)^l] (Eq. 10).  These close-form maps plus
    empirical estimates of [C] are the entire performance model of DBH. *)

val c_k : ?probes:int -> ?radius:int -> float -> int -> float
(** [c_k c k] = [c^k] (Eq. 9).  Requires [c ∈ \[0,1\]], [k >= 0].

    With [probes] buckets probed per table within Hamming radius
    [radius] of the base key (defaults [1] and [0]: one probe), a
    probed bucket at flip distance [m] collides with the query's
    neighbor exactly when the [m] flipped bits all disagree and the
    remaining [k − m] agree — disjoint events across distinct flip
    subsets, so the per-table rate is
    [c^k + n1·c^(k−1)(1−c) + n2·c^(k−2)(1−c)²], clamped to 1, with
    [(n1, n2)] from {!probe_split}.  At [probes = 1] or [radius = 0]
    both extra terms are zero and the result is [c^k] bit for bit. *)

val c_kl : ?probes:int -> ?radius:int -> float -> k:int -> l:int -> float
(** [c_kl c ~k ~l] = [1 − (1 − c_k c k)^l] (Eq. 10), the probability of
    colliding in at least one of [l] tables; [probes]/[radius] as in
    {!c_k}.  Requires [l >= 0]. *)

val l_for_target :
  ?probes:int -> ?radius:int -> float -> k:int -> target:float -> int option
(** Smallest [l] with [c_kl c ~k ~l >= target], or [None] if unreachable
    ([c_k c k = 0] with positive target).  Closed form:
    [l = ceil (log(1−target) / log(1−c_k c k))].  With [probes]/[radius]
    it is the analytical handle on how many tables multi-probing saves
    at equal accuracy. *)

val probe_split : k:int -> probes:int -> radius:int -> int * int
(** [(n1, n2)]: how many of the [probes − 1] extra probes land on 1-flip
    and 2-flip keys.  [n1 = min (probes−1) k] when [radius >= 1];
    [n2 = min (probes−1−n1) (k(k−1)/2)] when [radius = 2].  The model
    assumes the radius-1 shell fills before any radius-2 key (single
    flips are weakly cheaper than any pair containing them in the
    penalty order). *)

val estimate :
  rng:Dbh_util.Rng.t -> ?num_fns:int -> 'a Hash_family.t -> 'a -> 'a -> float
(** Empirical [C(X1,X2)]: fraction of agreeing bits over [num_fns]
    functions sampled with replacement (default 200), per Eq. 8. *)

val estimate_exact : 'a Hash_family.t -> 'a -> 'a -> float
(** Exact [C(X1,X2)] over the whole (finite) family — O(size) distance-
    cached evaluations.  Usable when the family is small. *)

val pairwise_matrix :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  ?num_fns:int ->
  'a Hash_family.t ->
  'a array ->
  float array array
(** Empirical collision-rate matrix of a sample (shared function draw so
    rates are comparable); diagonal is 1.  [pool] fans the per-object
    signature computations — the expensive step, up to [num_pivots]
    distances each — and the pairwise agreement rows across domains;
    the matrix is bit-identical to the sequential run for the same
    seed. *)
