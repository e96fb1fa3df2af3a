module Rng = Dbh_util.Rng
module Geom = Dbh_metrics.Geom
module Space = Dbh_space.Space

type instance = {
  label : int;
  points : Geom.point array;
}

type params = {
  num_points : int;
  control_jitter : float;
  rotation_sigma : float;
  log_scale_sigma : float;
  translation_sigma : float;
  warp_strength : float;
  noise_sigma : float;
}

let default_params =
  {
    num_points = 32;
    control_jitter = 0.03;
    rotation_sigma = 0.12;
    log_scale_sigma = 0.12;
    translation_sigma = 0.04;
    warp_strength = 0.25;
    noise_sigma = 0.012;
  }

(* A smooth random monotone warp of [0,1]: u + a·sin(π f u)/(π f) stays
   monotone for |a| < 1.  Composing two such terms gives varied profiles
   while preserving monotonicity. *)
let make_time_warp rng strength =
  let a1 = Rng.float_in rng (-.strength) strength in
  let f1 = float_of_int (Rng.int_in rng 1 3) in
  let a2 = Rng.float_in rng (-.strength) strength in
  let f2 = float_of_int (Rng.int_in rng 2 5) in
  fun u ->
    let v =
      u
      +. (a1 /. (Float.pi *. f1) *. sin (Float.pi *. f1 *. u))
      +. (a2 /. (Float.pi *. f2) *. sin (Float.pi *. f2 *. u))
    in
    Float.max 0. (Float.min 1. v)

let generate ~rng ?(params = default_params) label =
  if params.num_points < 4 then invalid_arg "Pen_digits.generate: num_points too small";
  let template = Digit_templates.flattened label in
  (* Jitter control points, then apply a random similarity transform. *)
  let theta = Rng.gaussian ~sigma:params.rotation_sigma rng in
  let scale = exp (Rng.gaussian ~sigma:params.log_scale_sigma rng) in
  let dx = Rng.gaussian ~sigma:params.translation_sigma rng in
  let dy = Rng.gaussian ~sigma:params.translation_sigma rng in
  let center = Geom.point 0.5 0.5 in
  let controls =
    Array.map
      (fun pt ->
        let jittered =
          Geom.point
            (pt.Geom.x +. Rng.gaussian ~sigma:params.control_jitter rng)
            (pt.Geom.y +. Rng.gaussian ~sigma:params.control_jitter rng)
        in
        let rel = Geom.sub jittered center in
        let placed = Geom.add center (Geom.scale scale (Geom.rotate theta rel)) in
        Geom.point (placed.Geom.x +. dx) (placed.Geom.y +. dy))
      template
  in
  (* Dense arc-length resampling, then a monotone time warp picks the
     actual pen positions: same shape, different speed profile. *)
  let dense_n = 4 * params.num_points in
  let dense = Geom.resample dense_n controls in
  let warp = make_time_warp rng params.warp_strength in
  let points =
    Array.init params.num_points (fun i ->
        let u = float_of_int i /. float_of_int (params.num_points - 1) in
        let w = warp u in
        let pos = w *. float_of_int (dense_n - 1) in
        let lo = int_of_float (Float.floor pos) in
        let hi = min (lo + 1) (dense_n - 1) in
        let frac = pos -. float_of_int lo in
        let pt = Geom.add dense.(lo) (Geom.scale frac (Geom.sub dense.(hi) dense.(lo))) in
        Geom.point
          (pt.Geom.x +. Rng.gaussian ~sigma:params.noise_sigma rng)
          (pt.Geom.y +. Rng.gaussian ~sigma:params.noise_sigma rng))
  in
  { label; points }

let generate_set ~rng ?(params = default_params) count =
  if count < 1 then invalid_arg "Pen_digits.generate_set: count must be positive";
  Array.init count (fun i -> generate ~rng ~params (i mod Digit_templates.num_classes))

let trajectory_cost d = Array.length d.points

let space =
  Space.make ~item_cost:trajectory_cost ~name:"pen-digits/DTW" (fun a b ->
      Dbh_metrics.Dtw.points a.points b.points)
