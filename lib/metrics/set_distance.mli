(** Distances between finite sets of integers (feature ids, shingles,
    n-gram hashes...).  Jaccard is the measure MinHash LSH is locality
    sensitive for, giving another space where DBH can be cross-checked
    against classical LSH. *)

val jaccard : int array -> int array -> float
(** [1 − |A ∩ B| / |A ∪ B|]; [0.] for two empty sets.  Inputs need not be
    sorted and may contain duplicates (deduplicated internally). *)
