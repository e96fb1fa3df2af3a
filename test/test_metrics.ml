(* Tests for Dbh_metrics: geometry, Lp, Hamming, divergences, edit
   distance, DTW, chamfer, shape context, cosine. *)

module Geom = Dbh_metrics.Geom
module Minkowski = Dbh_metrics.Minkowski
module Hamming = Dbh_metrics.Hamming
module Divergence = Dbh_metrics.Divergence
module Edit_distance = Dbh_metrics.Edit_distance
module Dtw = Dbh_metrics.Dtw
module Chamfer = Dbh_metrics.Chamfer
module Shape_context = Dbh_metrics.Shape_context
module Cosine = Dbh_metrics.Cosine
module Pen = Dbh_datasets.Pen_digits
module Rng = Dbh_util.Rng

let check_float = Alcotest.(check (float 1e-9))
let check_loose tol = Alcotest.(check (float tol))

let vec_gen dim =
  QCheck.Gen.(array_size (return dim) (float_range (-50.) 50.))
  |> QCheck.make ~print:(fun a ->
         "[" ^ String.concat ";" (Array.to_list (Array.map string_of_float a)) ^ "]")

(* ------------------------------------------------------------------ Geom *)

let test_geom_basics () =
  let a = Geom.point 1. 2. and b = Geom.point 4. 6. in
  check_float "dist" 5. (Geom.dist a b);
  check_float "dist_sq" 25. (Geom.dist_sq a b);
  check_float "norm" (sqrt 5.) (Geom.norm a);
  let s = Geom.add a b in
  check_float "add x" 5. s.Geom.x;
  check_float "add y" 8. s.Geom.y

let test_geom_rotate () =
  let p = Geom.point 1. 0. in
  let r = Geom.rotate (Float.pi /. 2.) p in
  check_loose 1e-9 "x" 0. r.Geom.x;
  check_loose 1e-9 "y" 1. r.Geom.y;
  (* Rotation preserves norms. *)
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let q = Geom.point (Rng.float_in rng (-5.) 5.) (Rng.float_in rng (-5.) 5.) in
    let theta = Rng.float rng 7. in
    check_loose 1e-9 "norm preserved" (Geom.norm q) (Geom.norm (Geom.rotate theta q))
  done

let test_geom_angle () =
  check_loose 1e-9 "east" 0. (Geom.angle_of (Geom.point 1. 0.));
  check_loose 1e-9 "north" (Float.pi /. 2.) (Geom.angle_of (Geom.point 0. 1.));
  check_loose 1e-9 "west" Float.pi (Geom.angle_of (Geom.point (-1.) 0.));
  check_loose 1e-9 "south" (1.5 *. Float.pi) (Geom.angle_of (Geom.point 0. (-1.)))

let test_geom_centroid () =
  let c = Geom.centroid [| Geom.point 0. 0.; Geom.point 2. 4. |] in
  check_float "cx" 1. c.Geom.x;
  check_float "cy" 2. c.Geom.y

let test_geom_resample () =
  let line = [| Geom.point 0. 0.; Geom.point 10. 0. |] in
  let r = Geom.resample 5 line in
  Alcotest.(check int) "count" 5 (Array.length r);
  check_loose 1e-9 "start" 0. r.(0).Geom.x;
  check_loose 1e-9 "end" 10. r.(4).Geom.x;
  check_loose 1e-9 "even spacing" 2.5 r.(1).Geom.x;
  (* Multi-segment polyline: arc length is preserved. *)
  let poly = [| Geom.point 0. 0.; Geom.point 1. 0.; Geom.point 1. 1.; Geom.point 2. 1. |] in
  let r = Geom.resample 31 poly in
  check_loose 0.01 "path length preserved" (Geom.path_length poly) (Geom.path_length r)

let test_geom_resample_degenerate () =
  let single = [| Geom.point 3. 3. |] in
  let r = Geom.resample 4 single in
  Alcotest.(check int) "replicated" 4 (Array.length r);
  check_float "value" 3. r.(2).Geom.x

let test_geom_normalize_box () =
  let pts = [| Geom.point 10. 10.; Geom.point 14. 12. |] in
  let n = Geom.normalize_to_unit_box pts in
  let max_abs =
    Array.fold_left
      (fun acc p -> Float.max acc (Float.max (Float.abs p.Geom.x) (Float.abs p.Geom.y)))
      0. n
  in
  check_loose 1e-9 "fits unit box" 1. max_abs

let test_geom_mean_pairwise () =
  let pts = [| Geom.point 0. 0.; Geom.point 3. 4.; Geom.point 0. 0. |] in
  (* pairs: 5, 5, 0 -> mean 10/3 *)
  check_loose 1e-9 "mean pairwise" (10. /. 3.) (Geom.mean_pairwise_distance pts)

(* ------------------------------------------------------------- Minkowski *)

let test_minkowski_known () =
  let a = [| 0.; 0. |] and b = [| 3.; 4. |] in
  check_float "l1" 7. (Minkowski.l1 a b);
  check_float "l2" 5. (Minkowski.l2 a b);
  check_float "l2sq" 25. (Minkowski.l2_squared a b);
  check_float "linf" 4. (Minkowski.linf a b);
  check_loose 1e-9 "lp(2)=l2" 5. (Minkowski.lp 2. a b);
  check_loose 1e-9 "lp(1)=l1" 7. (Minkowski.lp 1. a b)

let prop_metric name dist =
  QCheck.Test.make ~name ~count:200
    QCheck.(triple (vec_gen 5) (vec_gen 5) (vec_gen 5))
    (fun (a, b, c) ->
      let dab = dist a b and dba = dist b a in
      let daa = dist a a in
      let dac = dist a c and dbc = dist b c in
      Float.abs (dab -. dba) < 1e-9
      && daa < 1e-9
      && dab >= 0.
      && dac <= dab +. dbc +. 1e-6)

let prop_lp_monotone =
  (* Lp norms are non-increasing in p for fixed vectors. *)
  QCheck.Test.make ~name:"lp non-increasing in p" ~count:200
    QCheck.(pair (vec_gen 6) (vec_gen 6))
    (fun (a, b) ->
      let d1 = Minkowski.lp 1. a b
      and d2 = Minkowski.lp 2. a b
      and d4 = Minkowski.lp 4. a b in
      d1 >= d2 -. 1e-9 && d2 >= d4 -. 1e-9 && d4 >= Minkowski.linf a b -. 1e-9)

let test_minkowski_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Minkowski: dimension mismatch")
    (fun () -> ignore (Minkowski.l2 [| 1. |] [| 1.; 2. |]))

(* --------------------------------------------------------------- Hamming *)

let test_hamming () =
  check_float "bools" 2. (Hamming.bools [| true; false; true |] [| false; false; false |]);
  check_float "strings" 1. (Hamming.strings "abc" "abd");
  check_float "ints" 2. (Hamming.ints [| 1; 2; 3 |] [| 1; 5; 9 |]);
  check_float "self" 0. (Hamming.strings "xyz" "xyz")

(* ------------------------------------------------------------ Divergence *)

let dist_gen bins =
  let gen =
    QCheck.Gen.map
      (fun raw ->
        let total = Array.fold_left ( +. ) 0. raw in
        Array.map (fun x -> x /. total) raw)
      QCheck.Gen.(array_size (return bins) (float_range 0.01 1.))
  in
  QCheck.make gen ~print:(fun a ->
      String.concat ";" (Array.to_list (Array.map string_of_float a)))

let prop_kl_nonneg =
  QCheck.Test.make ~name:"KL >= 0, KL(p,p) = 0" ~count:200
    QCheck.(pair (dist_gen 6) (dist_gen 6))
    (fun (p, q) -> Divergence.kl p q >= -1e-9 && Float.abs (Divergence.kl p p) < 1e-9)

let test_kl_asymmetric () =
  let p = [| 0.9; 0.1 |] and q = [| 0.5; 0.5 |] in
  Alcotest.(check bool) "asymmetric" true
    (Float.abs (Divergence.kl p q -. Divergence.kl q p) > 1e-6)

let prop_js_bounded_symmetric =
  QCheck.Test.make ~name:"JS symmetric and bounded by ln 2" ~count:200
    QCheck.(pair (dist_gen 5) (dist_gen 5))
    (fun (p, q) ->
      let js = Divergence.jensen_shannon p q in
      Float.abs (js -. Divergence.jensen_shannon q p) < 1e-9
      && js >= -1e-12
      && js <= log 2. +. 1e-9)

let prop_chi2_tv_sym =
  QCheck.Test.make ~name:"chi2 and TV symmetric, zero on self" ~count:200
    QCheck.(pair (dist_gen 5) (dist_gen 5))
    (fun (p, q) ->
      Float.abs (Divergence.chi2 p q -. Divergence.chi2 q p) < 1e-12
      && Float.abs (Divergence.total_variation p q -. Divergence.total_variation q p) < 1e-12
      && Divergence.chi2 p p < 1e-12
      && Divergence.total_variation p p < 1e-12)

let test_tv_known () =
  check_float "tv" 0.5 (Divergence.total_variation [| 1.; 0. |] [| 0.5; 0.5 |])

let test_histogram_intersection () =
  check_float "identical" 0. (Divergence.histogram_intersection [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  check_float "disjoint" 1. (Divergence.histogram_intersection [| 1.; 0. |] [| 0.; 1. |])

let test_normalize () =
  Alcotest.(check (array (float 1e-12))) "normalize" [| 0.25; 0.75 |]
    (Divergence.normalize [| 1.; 3. |]);
  Alcotest.check_raises "zero sum" (Invalid_argument "Divergence.normalize: non-positive sum")
    (fun () -> ignore (Divergence.normalize [| 0.; 0. |]))

(* --------------------------------------------------------- Edit distance *)

let test_edit_known () =
  check_float "kitten/sitting" 3. (Edit_distance.levenshtein "kitten" "sitting");
  check_float "empty" 3. (Edit_distance.levenshtein "" "abc");
  check_float "self" 0. (Edit_distance.levenshtein "same" "same");
  check_float "weighted sub" 1.5
    (Edit_distance.levenshtein ~sub_cost:1.5 "abc" "axc")

let edit_str_gen = QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 12) (QCheck.Gen.char_range 'a' 'd'))

let prop_edit_metric =
  QCheck.Test.make ~name:"levenshtein metric axioms" ~count:150
    QCheck.(triple edit_str_gen edit_str_gen edit_str_gen)
    (fun (a, b, c) ->
      let d = Edit_distance.levenshtein in
      Float.abs (d a b -. d b a) < 1e-9
      && d a a = 0.
      && d a c <= d a b +. d b c +. 1e-9
      && d a b >= Float.abs (float_of_int (String.length a - String.length b)) -. 1e-9)

let prop_banded_upper_bound =
  QCheck.Test.make ~name:"banded >= exact; equal with wide band" ~count:150
    QCheck.(pair edit_str_gen edit_str_gen)
    (fun (a, b) ->
      let exact = Edit_distance.levenshtein a b in
      let wide = Edit_distance.levenshtein_banded ~band:(String.length a + String.length b) a b in
      let narrow = Edit_distance.levenshtein_banded ~band:1 a b in
      Float.abs (wide -. exact) < 1e-9 && narrow >= exact -. 1e-9)

let test_substitution_only () =
  check_float "subs" 2. (Edit_distance.substitution_only "abcd" "axcy");
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Edit_distance.substitution_only: length mismatch")
    (fun () -> ignore (Edit_distance.substitution_only "a" "ab"))

(* ------------------------------------------------------------------- DTW *)

let test_dtw_identity () =
  let x = [| 1.; 2.; 3.; 2. |] in
  check_float "self" 0. (Dtw.floats x x)

let test_dtw_known () =
  (* [0;0;1] vs [0;1]: align 0,0->0 and 1->1: cost 0. *)
  check_float "warp absorbs repeat" 0. (Dtw.floats [| 0.; 0.; 1. |] [| 0.; 1. |]);
  (* Constant shift accumulates along the diagonal. *)
  check_float "shift" 3. (Dtw.floats [| 0.; 0.; 0. |] [| 1.; 1.; 1. |])

let prop_dtw_symmetric =
  let series_gen =
    QCheck.Gen.(array_size (int_range 1 10) (float_range (-5.) 5.))
    |> QCheck.make ~print:(fun a ->
           String.concat ";" (Array.to_list (Array.map string_of_float a)))
  in
  QCheck.Test.make ~name:"dtw symmetric, nonneg, zero on self" ~count:200
    QCheck.(pair series_gen series_gen)
    (fun (a, b) ->
      let d = Dtw.floats a b in
      Float.abs (d -. Dtw.floats b a) < 1e-9 && d >= 0. && Dtw.floats a a < 1e-12)

let prop_dtw_bounded_by_diagonal =
  let series_gen n =
    QCheck.Gen.(array_size (return n) (float_range (-5.) 5.))
    |> QCheck.make ~print:(fun a ->
           String.concat ";" (Array.to_list (Array.map string_of_float a)))
  in
  QCheck.Test.make ~name:"dtw <= pointwise alignment cost" ~count:200
    QCheck.(pair (series_gen 8) (series_gen 8))
    (fun (a, b) ->
      let diag = ref 0. in
      Array.iteri (fun i x -> diag := !diag +. Float.abs (x -. b.(i))) a;
      Dtw.floats a b <= !diag +. 1e-9)

let test_dtw_non_metric () =
  (* Triangle-inequality violation: d(a,c)=2 > d(a,b)+d(b,c) = 1+0. *)
  let a = [| 0. |] and b = [| 1.; 0. |] and c = [| 1.; 1.; 0. |] in
  let dab = Dtw.floats a b and dbc = Dtw.floats b c and dac = Dtw.floats a c in
  check_float "d(a,b)" 1. dab;
  check_float "d(b,c)" 0. dbc;
  check_float "d(a,c)" 2. dac;
  Alcotest.(check bool) "violates triangle" true (dac > dab +. dbc +. 1e-9)

let test_dtw_path () =
  let path, cost = Dtw.path ~cost:(fun x y -> Float.abs (x -. y)) [| 0.; 0.; 1. |] [| 0.; 1. |] in
  check_float "path cost matches" (Dtw.floats [| 0.; 0.; 1. |] [| 0.; 1. |]) cost;
  (match path with
  | (0, 0) :: _ -> ()
  | _ -> Alcotest.fail "path must start at (0,0)");
  (match List.rev path with
  | (2, 1) :: _ -> ()
  | _ -> Alcotest.fail "path must end at (n-1,m-1)");
  (* Monotone steps. *)
  let rec monotone = function
    | (i1, j1) :: ((i2, j2) :: _ as rest) ->
        let di = i2 - i1 and dj = j2 - j1 in
        if (di = 0 || di = 1) && (dj = 0 || dj = 1) && di + dj > 0 then monotone rest
        else false
    | _ -> true
  in
  Alcotest.(check bool) "monotone path" true (monotone path)

let test_dtw_band_wide_equals_full () =
  let rng = Rng.create 7 in
  for _ = 1 to 30 do
    let a = Array.init 12 (fun _ -> Rng.float_in rng (-3.) 3.) in
    let b = Array.init 9 (fun _ -> Rng.float_in rng (-3.) 3.) in
    check_loose 1e-9 "wide band exact" (Dtw.floats a b) (Dtw.floats ~band:20 a b)
  done

let test_dtw_band_upper_bound () =
  let rng = Rng.create 8 in
  for _ = 1 to 30 do
    let a = Array.init 14 (fun _ -> Rng.float_in rng (-3.) 3.) in
    let b = Array.init 14 (fun _ -> Rng.float_in rng (-3.) 3.) in
    Alcotest.(check bool) "banded >= full" true (Dtw.floats ~band:2 a b >= Dtw.floats a b -. 1e-9)
  done

let test_dtw_points () =
  let a = [| Geom.point 0. 0.; Geom.point 1. 0. |] in
  let b = [| Geom.point 0. 1.; Geom.point 1. 1. |] in
  check_float "2d dtw" 2. (Dtw.points a b)

(* [Dtw.points] is a specialized kernel; [Dtw.distance ~cost:Geom.dist]
   is the generic path it must reproduce: the same bits, or NaN on both
   sides. *)
let points_match_generic a b =
  let fast = Dtw.points a b and generic = Dtw.distance ~cost:Geom.dist a b in
  Int64.equal (Int64.bits_of_float fast) (Int64.bits_of_float generic)
  || (Float.is_nan fast && Float.is_nan generic)

let trajectory_arb ~max_len coord =
  QCheck.make
    ~print:(fun a ->
      String.concat ";"
        (Array.to_list (Array.map (fun p -> Printf.sprintf "(%h,%h)" p.Geom.x p.Geom.y) a)))
    QCheck.Gen.(array_size (int_range 1 max_len) (map2 Geom.point coord coord))

let prop_dtw_points_bit_identical =
  let traj = trajectory_arb ~max_len:40 (QCheck.Gen.float_range (-50.) 50.) in
  QCheck.Test.make ~name:"points = distance ~cost:Geom.dist, bit for bit" ~count:300
    (QCheck.pair traj traj) (fun (a, b) -> points_match_generic a b)

(* Short trajectories, so that some pairs mix finite cells with NaN and
   infinite ones. *)
let prop_dtw_points_bit_identical_nonfinite =
  let coord =
    QCheck.Gen.(
      frequency [ (3, float_range (-2.) 2.); (1, oneofl [ infinity; neg_infinity; nan; 0.; -0. ]) ])
  in
  let traj = trajectory_arb ~max_len:6 coord in
  QCheck.Test.make ~name:"points = distance on non-finite coordinates" ~count:500
    (QCheck.pair traj traj) (fun (a, b) -> points_match_generic a b)

let test_dtw_points_nan_minimum () =
  (* Row 0 is NaN throughout, so every minimum in row 1 is NaN and its
     cells stay at infinity: the distance is infinity, not NaN. *)
  let a = [| Geom.point nan 0.; Geom.point 0. 0. |] in
  let b = [| Geom.point 0. 0.; Geom.point 1. 0. |] in
  Alcotest.(check bool) "generic" true (Dtw.distance ~cost:Geom.dist a b = infinity);
  Alcotest.(check bool) "points" true (Dtw.points a b = infinity)

let test_dtw_points_pen_pairs () =
  let set = Pen.generate_set ~rng:(Rng.create 21) 100 in
  let rng = Rng.create 22 in
  let differ = ref 0 in
  for _ = 1 to 500 do
    let a = (Rng.choose rng set).Pen.points and b = (Rng.choose rng set).Pen.points in
    if not (points_match_generic a b) then incr differ
  done;
  Alcotest.(check int) "pen pairs whose bits differ" 0 !differ

let test_dtw_points_allocation () =
  let set = Pen.generate_set ~rng:(Rng.create 23) 64 in
  let pairs = Array.init 32 (fun i -> (set.(2 * i).Pen.points, set.((2 * i) + 1).Pen.points)) in
  Alcotest.(check int) "trajectory length" 32 (Array.length (fst pairs.(0)));
  let dtw (a, b) = Dtw.points a b in
  ignore (Memo_pen.words_per_query dtw pairs);
  (* A warmed call works in its domain's block, so what allocates is the
     boxed result (2 words) and its slot in the result array (1 word,
     plus the array's header spread over the calls).  The 3 words of
     margin are less than one 32-float DP row (33 words). *)
  let _, words = Memo_pen.words_per_query dtw pairs in
  if words > 6. then Alcotest.failf "Dtw.points allocated %.1f words per call (ceiling 6)" words

(* Every call of [Dtw.points] in a domain works in that domain's one
   block.  Two domains hold two blocks at once; two systhreads of one
   domain share its block, and a thread switch can fall mid-call, when
   the other thread must find the block lent out and work in a fresh
   one.  Lengths are mixed, so the blocks grow mid-run. *)
let test_dtw_points_shared_block () =
  let rng = Rng.create 24 in
  let trajectory () =
    let params = { Pen.default_params with Pen.num_points = 4 + Rng.int rng 93 } in
    (Pen.generate ~rng ~params (Rng.int rng 10)).Pen.points
  in
  let pairs = Array.init 500 (fun _ -> (trajectory (), trajectory ())) in
  let expected = Array.map (fun (a, b) -> Dtw.distance ~cost:Geom.dist a b) pairs in
  (* Pairs whose bits differ from [expected] over [passes] passes. *)
  let differ passes () =
    let n = ref 0 in
    for _ = 1 to passes do
      Array.iteri
        (fun i (a, b) ->
          let d = Dtw.points a b in
          if not (Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float expected.(i))) then
            incr n)
        pairs
    done;
    !n
  in
  let other = Domain.spawn (differ 2) in
  let here = differ 2 () in
  Alcotest.(check (pair int int)) "two domains: pairs whose bits differ" (0, 0)
    (here, Domain.join other);
  (* Systhreads switch on the runtime's 50 ms tick, so each thread runs
     for about a quarter of a second: several switches, nearly all of
     them mid-call.  A block lent to both threads at once made 2 or 3
     pairs differ per thread in each of 6 runs at this length. *)
  let theirs = ref (-1) in
  let thread = Thread.create (fun () -> theirs := differ 24 ()) () in
  let here = differ 24 () in
  Thread.join thread;
  Alcotest.(check (pair int int)) "two systhreads: pairs whose bits differ" (0, 0) (here, !theirs)

(* --------------------------------------------------------------- Chamfer *)

let square_pts = [| Geom.point 0. 0.; Geom.point 1. 0.; Geom.point 0. 1.; Geom.point 1. 1. |]

let test_chamfer_self () = check_float "self" 0. (Chamfer.symmetric square_pts square_pts)

let test_chamfer_directed_known () =
  let a = [| Geom.point 0. 0. |] in
  let b = [| Geom.point 3. 4.; Geom.point 6. 8. |] in
  check_float "nearest of b" 5. (Chamfer.directed a b);
  check_float "asymmetric direction" 7.5 (Chamfer.directed b a)

let test_chamfer_symmetric_is_symmetric () =
  let rng = Rng.create 9 in
  for _ = 1 to 30 do
    let mk n = Array.init n (fun _ -> Geom.point (Rng.float rng 1.) (Rng.float rng 1.)) in
    let a = mk (1 + Rng.int rng 10) and b = mk (1 + Rng.int rng 10) in
    check_loose 1e-9 "symmetric" (Chamfer.symmetric a b) (Chamfer.symmetric b a)
  done

let test_chamfer_grid_matches_exact () =
  let rng = Rng.create 10 in
  for _ = 1 to 10 do
    let mk n = Array.init n (fun _ -> Geom.point (Rng.float rng 1.) (Rng.float rng 1.)) in
    let a = mk 15 and b = mk 20 in
    let g = Chamfer.grid_of_points ~size:512 ~lo:(-0.1) ~hi:1.1 b in
    let exact = Chamfer.directed a b in
    let approx = Chamfer.directed_to_grid a g in
    (* Raster resolution: cell = 1.2/511 ~ 0.0023; allow a few cells. *)
    check_loose 0.01 "grid approximates exact" exact approx
  done

let test_chamfer_translation_sensitivity () =
  let shifted = Array.map (fun p -> Geom.add p (Geom.point 0.5 0.)) square_pts in
  Alcotest.(check bool) "shift detected" true (Chamfer.symmetric square_pts shifted > 0.4)

(* --------------------------------------------------------- Shape context *)

let ring n r =
  Array.init n (fun i ->
      let t = 2. *. Float.pi *. float_of_int i /. float_of_int n in
      Geom.point (r *. cos t) (r *. sin t))

let test_sc_self_zero () =
  let d = Shape_context.compute (ring 20 1.) in
  check_loose 1e-9 "self cost" 0. (Shape_context.matching_cost d d)

let test_sc_histogram_normalized () =
  let d = Shape_context.compute (ring 16 1.) in
  for i = 0 to Shape_context.num_points d - 1 do
    let h = Shape_context.histogram d i in
    let total = Array.fold_left ( +. ) 0. h in
    check_loose 1e-9 "sums to 1" 1. total
  done

let test_sc_translation_invariant () =
  (* An irregular shape: a regular ring puts many pairs exactly on bin
     boundaries, where float rounding after translation flips bins.  For
     generic points the histograms are identical after translation. *)
  let rng = Rng.create 1234 in
  let pts =
    Array.init 20 (fun _ -> Geom.point (Rng.float_in rng (-1.) 1.) (Rng.float_in rng (-1.) 1.))
  in
  let moved = Array.map (fun p -> Geom.add p (Geom.point 5. (-3.))) pts in
  let da = Shape_context.compute pts and db = Shape_context.compute moved in
  check_loose 1e-6 "translation invariant" 0. (Shape_context.matching_cost da db)

let test_sc_scale_invariant () =
  let pts = ring 18 1. in
  (* Power-of-two scale: float multiplication is exact, so the radial
     ratios and hence the histograms match bit-for-bit. *)
  let scaled = Array.map (Geom.scale 2.) pts in
  let da = Shape_context.compute pts and db = Shape_context.compute scaled in
  check_loose 1e-6 "scale invariant" 0. (Shape_context.matching_cost da db)

let test_sc_discriminates () =
  let circle = Shape_context.compute (ring 20 1.) in
  let line =
    Shape_context.compute (Array.init 20 (fun i -> Geom.point (float_of_int i /. 10.) 0.))
  in
  let circle2 =
    Shape_context.compute (Array.map (fun p -> Geom.add p (Geom.point 0.01 0.)) (ring 20 1.))
  in
  let d_same = Shape_context.matching_cost circle circle2 in
  let d_diff = Shape_context.matching_cost circle line in
  Alcotest.(check bool) "circle vs line >> circle vs circle" true (d_diff > 5. *. d_same)

let test_sc_symmetric () =
  let a = Shape_context.compute (ring 15 1.) in
  let b = Shape_context.compute (ring 22 0.7) in
  check_loose 1e-9 "symmetric" (Shape_context.matching_cost a b) (Shape_context.matching_cost b a)

let test_sc_greedy_upper_bound () =
  let rng = Rng.create 11 in
  for _ = 1 to 10 do
    let mk n = Array.init n (fun _ -> Geom.point (Rng.float rng 1.) (Rng.float rng 1.)) in
    let a = Shape_context.compute (mk 12) and b = Shape_context.compute (mk 14) in
    Alcotest.(check bool) "greedy >= optimal" true
      (Shape_context.greedy_cost a b >= Shape_context.matching_cost a b -. 1e-9)
  done

let test_sc_rejects_tiny () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Shape_context.compute: need at least 2 points")
    (fun () -> ignore (Shape_context.compute [| Geom.point 0. 0. |]))

(* -------------------------------------------------------------- Hausdorff *)

let test_hausdorff_known () =
  let a = [| Geom.point 0. 0.; Geom.point 1. 0. |] in
  let b = [| Geom.point 0. 0.; Geom.point 5. 0. |] in
  (* directed a->b: max(0, 1) ... nearest of (1,0) in b is (0,0) at 1. *)
  check_float "directed a b" 1. (Dbh_metrics.Hausdorff.directed a b);
  (* directed b->a: (5,0) -> nearest (1,0) at 4. *)
  check_float "directed b a" 4. (Dbh_metrics.Hausdorff.directed b a);
  check_float "symmetric" 4. (Dbh_metrics.Hausdorff.symmetric a b);
  check_float "self" 0. (Dbh_metrics.Hausdorff.symmetric a a)

let test_hausdorff_partial_robust () =
  (* One outlier dominates the max but not the 0.75-quantile. *)
  let rng = Rng.create 77 in
  let base = Array.init 20 (fun _ -> Geom.point (Rng.float rng 1.) (Rng.float rng 1.)) in
  let with_outlier = Array.append base [| Geom.point 100. 100. |] in
  let full = Dbh_metrics.Hausdorff.directed with_outlier base in
  let part = Dbh_metrics.Hausdorff.partial ~fraction:0.75 with_outlier base in
  Alcotest.(check bool) "outlier dominates max" true (full > 50.);
  Alcotest.(check bool) "quantile robust" true (part < 1.)

let test_hausdorff_dominates_chamfer () =
  (* max >= mean of nearest distances, always. *)
  let rng = Rng.create 78 in
  for _ = 1 to 30 do
    let mk n = Array.init n (fun _ -> Geom.point (Rng.float rng 1.) (Rng.float rng 1.)) in
    let a = mk (2 + Rng.int rng 10) and b = mk (2 + Rng.int rng 10) in
    Alcotest.(check bool) "hausdorff >= chamfer" true
      (Dbh_metrics.Hausdorff.directed a b >= Chamfer.directed a b -. 1e-12)
  done

(* -------------------------------------------------------------------- EMD *)

let test_emd_known () =
  check_float "identical" 0. (Dbh_metrics.Emd.histograms [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  (* All mass moves one bin: EMD = 1. *)
  check_float "one bin shift" 1. (Dbh_metrics.Emd.histograms [| 1.; 0. |] [| 0.; 1. |]);
  (* Two bins away: EMD = 2. *)
  check_float "two bin shift" 2. (Dbh_metrics.Emd.histograms [| 1.; 0.; 0. |] [| 0.; 0.; 1. |]);
  (* Mass scale is normalized away. *)
  check_float "scale invariant" 1.
    (Dbh_metrics.Emd.histograms [| 10.; 0. |] [| 0.; 2. |])

let test_emd_sorted_samples () =
  check_float "samples" 0.5 (Dbh_metrics.Emd.sorted_samples [| 0.; 1. |] [| 0.; 2. |])

let test_emd_circular () =
  (* On a circle of 4 bins, shifting mass from bin 0 to bin 3 is one step
     backwards, not three forward. *)
  let p = [| 1.; 0.; 0.; 0. |] and q = [| 0.; 0.; 0.; 1. |] in
  check_float "linear sees 3" 3. (Dbh_metrics.Emd.histograms p q);
  check_float "circular sees 1" 1. (Dbh_metrics.Emd.circular p q);
  check_float "circular self" 0. (Dbh_metrics.Emd.circular p p)

let prop_emd_metric_on_histograms =
  QCheck.Test.make ~name:"1-d EMD symmetric + triangle" ~count:150
    QCheck.(triple (dist_gen 6) (dist_gen 6) (dist_gen 6))
    (fun (p, q, r) ->
      let d = Dbh_metrics.Emd.histograms in
      Float.abs (d p q -. d q p) < 1e-9 && d p r <= d p q +. d q r +. 1e-9)

(* --------------------------------------------------------------- Alignment *)

module Alignment = Dbh_metrics.Alignment

let test_nw_known () =
  (* Identical strings: all matches, score = 2n. *)
  check_float "identical" 8. (Alignment.needleman_wunsch "ACGT" "ACGT");
  (* One substitution: 3 matches + 1 mismatch = 6 - 1 = 5. *)
  check_float "one mismatch" 5. (Alignment.needleman_wunsch "ACGT" "ACGA");
  (* One insertion: 4 matches + 1 gap = 8 - 2 = 6. *)
  check_float "one gap" 6. (Alignment.needleman_wunsch "ACGT" "ACGGT");
  check_float "empty vs s" (-8.) (Alignment.needleman_wunsch "" "ACGT")

let test_global_distance () =
  check_float "self" 0. (Alignment.global_distance "ACGTACGT" "ACGTACGT");
  Alcotest.(check bool) "positive on diff" true (Alignment.global_distance "ACGT" "TTTT" > 0.);
  (* Symmetric by construction. *)
  check_float "symmetric"
    (Alignment.global_distance "ACGTAC" "AGTC")
    (Alignment.global_distance "AGTC" "ACGTAC")

let test_sw_known () =
  (* Shared substring "CGT": 3 matches = 6. *)
  check_float "local motif" 6. (Alignment.smith_waterman "AACGTA" "TTCGTT");
  (* Disjoint alphabets: best local score includes at most 0. *)
  check_float "nothing shared" 0. (Alignment.smith_waterman "AAAA" "TTTT");
  Alcotest.(check bool) "nonnegative" true (Alignment.smith_waterman "AC" "GT" >= 0.)

let test_local_distance () =
  check_loose 1e-9 "self" 0. (Alignment.local_distance "ACGTACGT" "ACGTACGT");
  check_loose 1e-9 "disjoint" 1. (Alignment.local_distance "AAAA" "TTTT");
  let d = Alignment.local_distance "ACGTACGT" "ACGTTTTT" in
  Alcotest.(check bool) "partial overlap in (0,1)" true (d > 0. && d < 1.)

let prop_alignment_properties =
  let dna_gen =
    QCheck.make
      QCheck.Gen.(string_size ~gen:(oneofl [ 'A'; 'C'; 'G'; 'T' ]) (int_range 1 15))
      ~print:(fun s -> s)
  in
  QCheck.Test.make ~name:"alignment distances: symmetry, identity, bounds" ~count:150
    QCheck.(pair dna_gen dna_gen)
    (fun (a, b) ->
      let g = Alignment.global_distance and l = Alignment.local_distance in
      Float.abs (g a b -. g b a) < 1e-9
      && g a a < 1e-9
      && g a b >= -1e-9
      && Float.abs (l a b -. l b a) < 1e-9
      && l a b >= -1e-9
      && l a b <= 1. +. 1e-9)

(* ---------------------------------------------------------- Set distances *)

let test_set_distances () =
  let a = [| 1; 2; 3; 4 |] and b = [| 3; 4; 5; 6 |] in
  check_float "jaccard" (1. -. (2. /. 6.)) (Dbh_metrics.Set_distance.jaccard a b);
  check_float "dice" (1. -. (4. /. 8.)) (Dbh_metrics.Set_distance.dice a b);
  check_float "overlap" 0.5 (Dbh_metrics.Set_distance.overlap a b);
  check_float "self" 0. (Dbh_metrics.Set_distance.jaccard a a);
  check_float "empty both" 0. (Dbh_metrics.Set_distance.jaccard [||] [||]);
  check_float "duplicates ignored" 0. (Dbh_metrics.Set_distance.jaccard [| 1; 1; 2 |] [| 2; 1 |])

let prop_jaccard_metric =
  let int_set_gen =
    QCheck.make
      QCheck.Gen.(array_size (int_range 0 12) (int_range 0 20))
      ~print:(fun a -> String.concat ";" (Array.to_list (Array.map string_of_int a)))
  in
  QCheck.Test.make ~name:"jaccard symmetric, bounded, triangle" ~count:200
    QCheck.(triple int_set_gen int_set_gen int_set_gen)
    (fun (a, b, c) ->
      let d = Dbh_metrics.Set_distance.jaccard in
      let dab = d a b in
      Float.abs (dab -. d b a) < 1e-12
      && dab >= 0.
      && dab <= 1.
      && d a c <= dab +. d b c +. 1e-9)

(* ---------------------------------------------------------------- Cosine *)

let test_cosine () =
  check_loose 1e-9 "parallel" 0. (Cosine.distance [| 1.; 2. |] [| 2.; 4. |]);
  check_loose 1e-9 "orthogonal" 1. (Cosine.distance [| 1.; 0. |] [| 0.; 1. |]);
  check_loose 1e-9 "opposite" 2. (Cosine.distance [| 1.; 0. |] [| -1.; 0. |]);
  check_loose 1e-9 "zero vector" 1. (Cosine.distance [| 0.; 0. |] [| 1.; 0. |]);
  check_loose 1e-9 "angular orthogonal" 0.5 (Cosine.angular [| 1.; 0. |] [| 0.; 1. |])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dbh_metrics"
    [
      ( "geom",
        [
          Alcotest.test_case "basics" `Quick test_geom_basics;
          Alcotest.test_case "rotate" `Quick test_geom_rotate;
          Alcotest.test_case "angle" `Quick test_geom_angle;
          Alcotest.test_case "centroid" `Quick test_geom_centroid;
          Alcotest.test_case "resample" `Quick test_geom_resample;
          Alcotest.test_case "resample degenerate" `Quick test_geom_resample_degenerate;
          Alcotest.test_case "normalize box" `Quick test_geom_normalize_box;
          Alcotest.test_case "mean pairwise" `Quick test_geom_mean_pairwise;
        ] );
      ( "minkowski",
        Alcotest.test_case "known values" `Quick test_minkowski_known
        :: Alcotest.test_case "dimension mismatch" `Quick test_minkowski_mismatch
        :: qsuite
             [
               prop_metric "l1 metric axioms" Minkowski.l1;
               prop_metric "l2 metric axioms" Minkowski.l2;
               prop_metric "linf metric axioms" Minkowski.linf;
               prop_lp_monotone;
             ] );
      ("hamming", [ Alcotest.test_case "known values" `Quick test_hamming ]);
      ( "divergence",
        Alcotest.test_case "kl asymmetric" `Quick test_kl_asymmetric
        :: Alcotest.test_case "tv known" `Quick test_tv_known
        :: Alcotest.test_case "histogram intersection" `Quick test_histogram_intersection
        :: Alcotest.test_case "normalize" `Quick test_normalize
        :: qsuite [ prop_kl_nonneg; prop_js_bounded_symmetric; prop_chi2_tv_sym ] );
      ( "edit_distance",
        Alcotest.test_case "known values" `Quick test_edit_known
        :: Alcotest.test_case "substitution only" `Quick test_substitution_only
        :: qsuite [ prop_edit_metric; prop_banded_upper_bound ] );
      ( "dtw",
        Alcotest.test_case "identity" `Quick test_dtw_identity
        :: Alcotest.test_case "known values" `Quick test_dtw_known
        :: Alcotest.test_case "non-metric witness" `Quick test_dtw_non_metric
        :: Alcotest.test_case "path" `Quick test_dtw_path
        :: Alcotest.test_case "wide band = full" `Quick test_dtw_band_wide_equals_full
        :: Alcotest.test_case "band upper bound" `Quick test_dtw_band_upper_bound
        :: Alcotest.test_case "2d points" `Quick test_dtw_points
        :: Alcotest.test_case "points: NaN minimum leaves infinity" `Quick
             test_dtw_points_nan_minimum
        :: Alcotest.test_case "points = distance on 500 pen pairs" `Quick test_dtw_points_pen_pairs
        :: Alcotest.test_case "points allocates only its rows" `Quick test_dtw_points_allocation
        :: qsuite
             [
               prop_dtw_symmetric;
               prop_dtw_bounded_by_diagonal;
               prop_dtw_points_bit_identical;
               prop_dtw_points_bit_identical_nonfinite;
             ]
        @ [
            Alcotest.test_case "points: one block per domain, shared by systhreads" `Quick
              test_dtw_points_shared_block;
          ] );
      ( "chamfer",
        [
          Alcotest.test_case "self" `Quick test_chamfer_self;
          Alcotest.test_case "directed known" `Quick test_chamfer_directed_known;
          Alcotest.test_case "symmetric" `Quick test_chamfer_symmetric_is_symmetric;
          Alcotest.test_case "grid matches exact" `Quick test_chamfer_grid_matches_exact;
          Alcotest.test_case "translation sensitivity" `Quick test_chamfer_translation_sensitivity;
        ] );
      ( "shape_context",
        [
          Alcotest.test_case "self zero" `Quick test_sc_self_zero;
          Alcotest.test_case "histograms normalized" `Quick test_sc_histogram_normalized;
          Alcotest.test_case "translation invariant" `Quick test_sc_translation_invariant;
          Alcotest.test_case "scale invariant" `Quick test_sc_scale_invariant;
          Alcotest.test_case "discriminates shapes" `Quick test_sc_discriminates;
          Alcotest.test_case "symmetric" `Quick test_sc_symmetric;
          Alcotest.test_case "greedy upper bound" `Quick test_sc_greedy_upper_bound;
          Alcotest.test_case "rejects tiny input" `Quick test_sc_rejects_tiny;
        ] );
      ("cosine", [ Alcotest.test_case "known values" `Quick test_cosine ]);
      ( "hausdorff",
        [
          Alcotest.test_case "known values" `Quick test_hausdorff_known;
          Alcotest.test_case "partial robust" `Quick test_hausdorff_partial_robust;
          Alcotest.test_case "dominates chamfer" `Quick test_hausdorff_dominates_chamfer;
        ] );
      ( "emd",
        Alcotest.test_case "known values" `Quick test_emd_known
        :: Alcotest.test_case "sorted samples" `Quick test_emd_sorted_samples
        :: Alcotest.test_case "circular" `Quick test_emd_circular
        :: qsuite [ prop_emd_metric_on_histograms ] );
      ( "set_distance",
        Alcotest.test_case "known values" `Quick test_set_distances
        :: qsuite [ prop_jaccard_metric ] );
      ( "alignment",
        Alcotest.test_case "needleman-wunsch known" `Quick test_nw_known
        :: Alcotest.test_case "global distance" `Quick test_global_distance
        :: Alcotest.test_case "smith-waterman known" `Quick test_sw_known
        :: Alcotest.test_case "local distance" `Quick test_local_distance
        :: qsuite [ prop_alignment_properties ] );
    ]
