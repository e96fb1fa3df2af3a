(** Levenshtein edit distance on strings.

    The paper cites edit distance as the canonical non-Lp string measure;
    LSH variants exist only for the substitution-only restriction, whereas
    DBH indexes the full insert/delete/substitute distance directly. *)

val levenshtein : string -> string -> float
(** Unit-cost edit distance: insertions, deletions and substitutions each
    cost [1.].  O(|a|·|b|) time, O(min(|a|,|b|)) space. *)

val space : string Dbh_space.Space.t
(** {!levenshtein} as a space. *)
