(** Hausdorff distances between planar point sets.

    The classic shape-comparison companion of the chamfer distance: where
    chamfer averages nearest-point distances, Hausdorff takes the
    maximum, making it far more sensitive to outliers — and its partial
    variant (Huttenlocher et al.) a standard robust non-metric
    alternative. *)

val directed : Geom.point array -> Geom.point array -> float
(** [directed a b] = max over [p ∈ a] of [min_{q ∈ b} |p − q|].
    Raises on empty sets.  O(|a|·|b|). *)

val symmetric : Geom.point array -> Geom.point array -> float
(** [max (directed a b) (directed b a)] — the (metric) Hausdorff
    distance. *)

val partial : fraction:float -> Geom.point array -> Geom.point array -> float
(** Directed partial Hausdorff: the [fraction]-quantile (e.g. 0.75)
    instead of the maximum of the nearest-point distances — robust to
    occlusion and clutter, and no longer a metric.
    Requires [fraction] in (0, 1]. *)

val partial_space : fraction:float -> Geom.point array Dbh_space.Space.t
(** Symmetrized (max of both directions) partial Hausdorff. *)
