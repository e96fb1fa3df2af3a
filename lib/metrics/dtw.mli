(** Dynamic time warping (Kruskal–Liberman), the paper's distance measure
    for the UNIPEN online-handwriting benchmark.

    DTW aligns two sequences monotonically, charging a ground cost per
    aligned pair; the distance is the minimal total cost.  It is symmetric
    (with a symmetric ground cost) but violates the triangle inequality —
    one of the paper's three motivating non-metric measures. *)

val distance : cost:('a -> 'a -> float) -> 'a array -> 'a array -> float
(** [distance ~cost a b] is the DTW distance with ground cost [cost]: the
    generic path, used by {!floats} and custom ground costs, and the
    reference {!points} is tested against.  Raises on empty sequences.
    O(|a|·|b|) time, O(|b|) space. *)

val floats : float array -> float array -> float
(** DTW on scalar series with ground cost [|x − y|]. *)

val points : Geom.point array -> Geom.point array -> float
(** DTW on planar trajectories with Euclidean ground cost — the UNIPEN
    configuration, and the kernel behind every pen-digit distance.
    Bit-identical to [distance ~cost:Geom.dist], NaN and infinite
    coordinates included.  When every coordinate is finite a specialized
    kernel runs: it copies [b]'s coordinates into a float block that also
    holds the two DP rows, one block per domain, reused across calls and
    grown to the longest [b] met, so a warmed call allocates only its
    boxed result.  Any other input runs [distance] itself.  Raises on
    empty sequences. *)
