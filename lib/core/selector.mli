(** How a hash family chooses its pivot pairs and threshold intervals.

    The paper's construction (Sec. V-B) is data-{e oblivious}: pivot
    pairs are drawn uniformly from X_small and the interval [t1,t2]
    uniformly from V(X1,X2) (Eq. 6).  Density-Sensitive Hashing
    (arXiv:1205.2930) and Neighbor-Sensitive Hashing (arXiv:1703.07867)
    show that spending the same construction sample on {e choosing}
    functions — instead of drawing them blindly — buys more selective
    families at identical query-time cost, because every selector still
    emits plain thresholded line projections that the collision model,
    optimal-(k,l) search, multi-probe margins and persistence treat
    identically.

    A selector only influences {!Hash_family.make}; it is recorded in
    the family (and its envelope) as a {!tag} for diagnostics. *)

type threshold_strategy =
  | Random_interval
      (** draw [t1,t2] uniformly from (a discretization of) V(X1,X2) —
          the paper's formulation (Eq. 6) and the default *)
  | Median_split
      (** always use the one-sided interval [(−∞, median)] — the simplest
          member of V(X1,X2); deterministic given the sample, less
          diverse *)

type t = private
  | Uniform of threshold_strategy
      (** the paper's data-oblivious construction: random pivot pairs,
          thresholds per [threshold_strategy].  Bit-identical to the
          pre-selector builds for the same seed. *)
  | Density of { grid : int }
      (** density-sensitive: for each candidate pair, place the interval
          boundary where the sample-projection density is lowest (over a
          [grid]-point discretization of V(X1,X2)), and keep the pairs
          whose boundaries fall in the sparsest regions.  Deterministic
          given the construction sample. *)
  | Neighbor of { neighbors : int; grid : int }
      (** neighbor-sensitive (NSH-style): prefer pairs/intervals that
          maximize bit disagreement among each sample point's [neighbors]
          nearest neighbors, so close points become distinguishable in
          Hamming space.  Nearest neighbors are approximated with the
          free pivot-embedding lower bound — no extra distance
          computations.  Deterministic given the construction sample. *)

val uniform : ?threshold_strategy:threshold_strategy -> unit -> t
val density_sensitive : ?grid:int -> unit -> t
(** [grid] (default 16): how many candidate intervals of V(X1,X2) are
    scored per pair.  Raises [Invalid_argument] when [grid < 2]. *)

val neighbor_sensitive : ?neighbors:int -> ?grid:int -> unit -> t
(** [neighbors] (default 8): the k of the per-sample-point kNN sets.
    Raises [Invalid_argument] on non-positive [neighbors] or
    [grid < 2]. *)

val default : t
(** [uniform ()] — the paper's construction. *)

(** {1 Tags}

    Stable one-word names used by the family envelope, the CLI
    ([--selector]) and bench/stats output. *)

val tag : t -> string
(** ["uniform"], ["median"], ["density"] or ["nsh"].  Parameters
    ([grid], [neighbors]) are build-time knobs and are not part of the
    tag. *)

val of_tag : string -> t option
(** Inverse of {!tag}, with default parameters. *)

val known_tags : string list
