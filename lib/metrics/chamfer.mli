(** Chamfer distance between planar point sets (Barrow et al.), the
    paper's distance measure for the hands dataset.

    The directed chamfer distance from [a] to [b] averages, over points of
    [a], the distance to the nearest point of [b].  It is non-metric: the
    directed form is asymmetric, and even the symmetrized form violates
    the triangle inequality. *)

val directed : Geom.point array -> Geom.point array -> float
(** [directed a b] = mean over [p ∈ a] of [min_{q ∈ b} |p − q|].
    Raises on empty sets.  O(|a|·|b|). *)

val symmetric : Geom.point array -> Geom.point array -> float
(** [directed a b + directed b a] — the form used in the experiments. *)

type grid
(** Precomputed distance transform of a point set over a raster grid,
    making repeated directed queries O(|a|) after an O(size²·sets) build.
    Distances are exact Euclidean distances to the nearest set point,
    evaluated at grid resolution (a two-pass Felzenszwalb–Huttenlocher
    transform on the squared distance). *)

val grid_of_points :
  size:int -> lo:float -> hi:float -> Geom.point array -> grid
(** Rasterize a point set into a [size]×[size] distance transform over the
    square [\[lo,hi\]²].  Query points are clamped to the square. *)

val directed_to_grid : Geom.point array -> grid -> float
(** Directed chamfer from a point set to the set represented by the grid;
    matches {!directed} up to raster resolution. *)
