(** Sequence-alignment scores and the dissimilarities derived from them.

    The paper's introduction motivates nearest-neighbor retrieval for
    "analysis of biological sequences" (BLAST, Swiss-Prot); alignment
    scores are the similarity measures of that world, and the distances
    derived from them are non-metric — exactly DBH territory.

    Both distances score with a common nucleotide scheme: match 2,
    mismatch −1, gap −2 per inserted or deleted symbol.  Each fills an
    O(|a|·|b|) table in O(min(|a|,|b|)) space. *)

val global_distance : string -> string -> float
(** [2 · max(|a|,|b|) − nw(a,b)], where [nw] is the Needleman–Wunsch
    global alignment score (higher = more similar): non-negative, zero
    iff the strings are equal.  Symmetric; no triangle inequality in
    general. *)

val local_distance : string -> string -> float
(** [1 − sw(a,b) / sqrt (sw(a,a) · sw(b,b))], where [sw] is the
    Smith–Waterman local alignment score (the best-scoring pair of
    substrings, never negative) — normalized local dissimilarity in
    [0, 1] (0 iff one string contains the other's best self-alignment);
    non-metric.  Raises on empty strings. *)

val global_space : string Dbh_space.Space.t
val local_space : string Dbh_space.Space.t
