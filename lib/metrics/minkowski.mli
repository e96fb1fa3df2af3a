(** Euclidean (L2) distance on float vectors.

    This is the space classical LSH covers; DBH must match dedicated
    methods here while also handling the non-metric measures LSH cannot. *)

val l2 : float array -> float array -> float
val l2_squared : float array -> float array -> float
val l2_space : float array Dbh_space.Space.t
