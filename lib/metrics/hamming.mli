(** Hamming distance on bit vectors.

    The original LSH constructions [Gionis–Indyk–Motwani] are stated for
    the Hamming cube; the {!Dbh_lsh} baseline and its comparison
    experiments run in this space. *)

val bools : bool array -> bool array -> float
(** Number of differing positions of two equal-length boolean vectors. *)

val bool_space : bool array Dbh_space.Space.t
