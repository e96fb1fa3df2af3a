(** 2-D geometry shared by the trajectory and image distance measures.

    Pen trajectories (DTW), edge images (chamfer) and shape contexts all
    manipulate planar point sets; this module centralizes the primitives. *)

type point = { x : float; y : float }

val point : float -> float -> point

val add : point -> point -> point
val sub : point -> point -> point
val scale : float -> point -> point
val dot : point -> point -> float
val norm : point -> float
val dist : point -> point -> float
val dist_sq : point -> point -> float

val rotate : float -> point -> point
(** [rotate theta p] rotates [p] by [theta] radians around the origin. *)

val angle_of : point -> float
(** Polar angle in [\[0, 2π)]. *)

val translate : point -> point array -> point array
val rotate_all : float -> point array -> point array

val mean_pairwise_distance : point array -> float
(** Average distance over all unordered pairs of a point set with at least
    two points — the normalization radius used by shape contexts. *)

val path_length : point array -> float
(** Total length of the polyline through the points, in order. *)

val resample : int -> point array -> point array
(** [resample n poly] returns [n] points evenly spaced by arc length along
    the polyline [poly].  Requires [n >= 2] and a non-empty input; a
    single-point input is replicated. *)
