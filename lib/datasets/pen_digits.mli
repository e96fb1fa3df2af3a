(** Synthetic online-handwriting digits — the UNIPEN analogue.

    Each instance is a pen trajectory: the digit's template strokes with
    jittered control points, a random similarity transform, variable pen
    speed (a smooth monotone time warp over the arc length) and per-point
    sensor noise, resampled to a fixed number of points.  Variable pen
    speed is what makes dynamic time warping — the paper's UNIPEN
    distance — the right measure here: two instances of the same digit
    differ mainly by a monotone reparameterization, exactly what DTW
    quotients out and what pointwise distances cannot. *)

type instance = {
  label : int;  (** digit 0–9 *)
  points : Dbh_metrics.Geom.point array;  (** the trajectory, in order *)
}

type params = {
  num_points : int;  (** trajectory length after resampling (default 32) *)
  control_jitter : float;  (** σ of control-point perturbation (default 0.03) *)
  rotation_sigma : float;  (** σ of global rotation, radians (default 0.12) *)
  log_scale_sigma : float;  (** σ of log global scale (default 0.12) *)
  translation_sigma : float;  (** σ of global translation (default 0.04) *)
  warp_strength : float;  (** amplitude of the pen-speed warp in (0, 0.5) (default 0.25) *)
  noise_sigma : float;  (** σ of per-point noise (default 0.012) *)
}

val default_params : params

val generate : rng:Dbh_util.Rng.t -> ?params:params -> int -> instance
(** One instance of the given digit. *)

val generate_set : rng:Dbh_util.Rng.t -> ?params:params -> int -> instance array
(** A label-balanced set of the given size (labels cycle through 0–9). *)

val space : instance Dbh_space.Space.t
(** DTW with Euclidean ground cost over the trajectories (labels are
    ignored by the distance). *)
