(** Divergences between discrete probability distributions.

    The Kullback–Leibler divergence is the paper's running example of a
    widely used {e non-metric} dissimilarity (asymmetric, no triangle
    inequality) that distance-based indexing must nevertheless support. *)

val kl : ?epsilon:float -> float array -> float array -> float
(** [kl p q] is the Kullback–Leibler divergence [D(p ‖ q)] in nats.
    Both arrays must have the same length; entries are clamped below by
    [epsilon] (default [1e-12]) so zero cells do not produce infinities
    (the usual smoothing when KL is used as a retrieval dissimilarity). *)

val chi2 : float array -> float array -> float
(** χ² histogram distance [0.5 · Σ (p_i − q_i)² / (p_i + q_i)], with
    zero-sum cells contributing zero — the per-bin cost used by shape
    contexts. *)

val normalize : float array -> float array
(** Scale a non-negative array to sum to 1.  Raises on a zero or negative
    sum. *)

val symmetric_kl_space : float array Dbh_space.Space.t
(** [kl p q + kl q p] — the symmetrized variant commonly used for
    retrieval; still violates the triangle inequality. *)
