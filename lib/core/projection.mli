(** FastMap-style pseudo line projections (paper Eq. 4).

    Given two reference objects [x1, x2] with [d12 = D(x1,x2) > 0], any
    object [x] is mapped to the real line by

    {v F(x) = (D(x,x1)² + d12² − D(x,x2)²) / (2·d12) v}

    In a Euclidean space this is the coordinate of the orthogonal
    projection of [x] onto the line through [x1] and [x2]; in an arbitrary
    space it is just a number computed from two black-box distances —
    which is all DBH needs. *)

val project_with : d1:float -> d2:float -> d12:float -> float
(** The formula on precomputed distances [d1 = D(x,x1)], [d2 = D(x,x2)]
    and [d12 > 0] — {!Hash_family} evaluates every function through it
    once the pivot distances are cached. *)
