(** Spaces with black-box distance measures.

    DBH's defining property is that it treats the distance measure as a
    black box: no metric or Euclidean structure is assumed.  A space is
    therefore just a name plus a distance function.  Indexing structures in
    this library are polymorphic over the element type and take a space as
    a first-class value, which keeps non-metric measures (DTW, chamfer,
    shape context, KL...) and ad-hoc test spaces equally easy to plug in.

    {!with_counter} wraps a space so that every distance evaluation is
    counted — the unit of cost throughout the paper's evaluation ("number
    of distance computations per query"). *)

type 'a t = {
  name : string;  (** Human-readable identifier used in reports. *)
  distance : 'a -> 'a -> float;  (** The black-box distance measure. *)
  item_cost : ('a -> int) option;
      (** Optional relative cost of one distance evaluation touching
          this element, in arbitrary units (see {!item_cost}).  [None]
          means every evaluation costs about the same. *)
}

val make : ?item_cost:('a -> int) -> name:string -> ('a -> 'a -> float) -> 'a t
(** [make ?item_cost ~name d] is the space measuring with [d].
    [item_cost x] should scale like the work of [d x _] — e.g. the
    sequence length for DTW or edit distance, whose cost is the product
    of the two lengths — so pool fan-outs can balance chunks by
    estimated distance cost instead of element count.  It must be cheap
    (it is called once per element per fan-out) and pure. *)

val rename : string -> 'a t -> 'a t
(** [rename name t] is [t] answering to a different name. *)

(** {1 Cost estimation} *)

val item_cost : 'a t -> 'a -> int
(** The declared relative cost of [x], clamped to [>= 1]; [1] when the
    space carries no estimator.  Only ratios matter: the pool uses
    these to equalize per-chunk totals. *)

val has_item_cost : 'a t -> bool

val cost_estimator : 'a t -> 'a array -> (int -> int) option
(** [cost_estimator t arr] is [Some (fun i -> item_cost t arr.(i))]
    when [t] carries an estimator, else [None] — shaped for direct use
    as the [?cost] argument of the {!Dbh_util.Pool} combinators. *)

(** {1 Distance counting} *)

type counter
(** Mutable tally of distance evaluations.  Atomic: counts stay exact
    when the space is called from several domains at once (parallel
    build, batched queries). *)

val counter : unit -> counter
val count : counter -> int
val reset : counter -> unit

val with_counter : 'a t -> 'a t * counter
(** [with_counter s] is a space computing the same distances as [s] but
    bumping the returned counter on every call. *)

val counted : counter -> 'a t -> 'a t
(** Like {!with_counter} but instrumenting with an existing counter, so
    several spaces can share one tally. *)

val observed : 'a t -> 'a t
(** A space that additionally bumps the ambient
    [dbh_space_distance_calls_total] metric ({!Dbh_obs.Metrics}) on
    every call — the raw call tally, wider than the per-query cost
    counters (it also sees build-time and baseline distances).  When no
    metric set is installed the wrapper costs one atomic load per
    call. *)

(** {1 Derived and ad-hoc spaces} *)

val of_matrix : ?name:string -> float array array -> int t
(** [of_matrix m] is the finite space whose elements are indices
    [0 .. n-1] and whose distance is the matrix lookup [m.(i).(j)].  The
    matrix must be square with no NaN or negative entries (the checks
    downstream index construction relies on); it is {e not} copied — but
    also not re-validated, so don't mutate entries to invalid values
    afterwards.  This realizes the paper's Section IV-B construction
    (random distance matrices) used to show that the DBH family need not
    be locality sensitive. *)

val random_metric_matrix : Dbh_util.Rng.t -> int -> float array array
(** [random_metric_matrix rng n] draws a symmetric [n]×[n] matrix with
    zero diagonal and off-diagonal entries uniform in [\[1,2\]] — exactly
    the paper's example of a metric space (symmetry plus triangle
    inequality hold because all distances live in [\[1,2\]]) where
    distances carry no mutual information. *)

val transform : name:string -> ('b -> 'a) -> 'a t -> 'b t
(** [transform ~name f s] measures distance between [x] and [y] as
    [s.distance (f x) (f y)] — pullback of a space along a feature map. *)

(** {1 Checks (for tests and diagnostics)} *)

val is_symmetric : ?tol:float -> 'a t -> 'a array -> bool
(** Checks [d(x,y) = d(y,x)] for all pairs of the given sample. *)

val triangle_violations : ?tol:float -> 'a t -> 'a array -> int
(** Number of ordered sample triples [(x,y,z)] with
    [d(x,z) > d(x,y) + d(y,z) + tol].  Zero on a metric sample;
    positive counts witness non-metricity (expected for DTW, chamfer...). *)
