(* Tests for Dbh_metrics: geometry, L2, Hamming, divergences, edit
   distance, DTW, chamfer, shape context, alignment, set distances. *)

module Geom = Dbh_metrics.Geom
module Minkowski = Dbh_metrics.Minkowski
module Hamming = Dbh_metrics.Hamming
module Divergence = Dbh_metrics.Divergence
module Edit_distance = Dbh_metrics.Edit_distance
module Dtw = Dbh_metrics.Dtw
module Chamfer = Dbh_metrics.Chamfer
module Shape_context = Dbh_metrics.Shape_context
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

let test_geom_mean_pairwise () =
  let pts = [| Geom.point 0. 0.; Geom.point 3. 4.; Geom.point 0. 0. |] in
  (* pairs: 5, 5, 0 -> mean 10/3 *)
  check_loose 1e-9 "mean pairwise" (10. /. 3.) (Geom.mean_pairwise_distance pts)

(* ------------------------------------------------------------- Minkowski *)

let test_minkowski_known () =
  let a = [| 0.; 0. |] and b = [| 3.; 4. |] in
  check_float "l2" 5. (Minkowski.l2 a b);
  check_float "l2sq" 25. (Minkowski.l2_squared a b)

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

let test_minkowski_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Minkowski: dimension mismatch")
    (fun () -> ignore (Minkowski.l2 [| 1. |] [| 1.; 2. |]))

(* --------------------------------------------------------------- Hamming *)

let test_hamming () =
  check_float "bools" 2. (Hamming.bools [| true; false; true |] [| false; false; false |]);
  check_float "self" 0. (Hamming.bools [| true; false |] [| true; false |])

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

let prop_chi2_sym =
  QCheck.Test.make ~name:"chi2 symmetric, zero on self" ~count:200
    QCheck.(pair (dist_gen 5) (dist_gen 5))
    (fun (p, q) ->
      Float.abs (Divergence.chi2 p q -. Divergence.chi2 q p) < 1e-12 && Divergence.chi2 p p < 1e-12)

let test_normalize () =
  Alcotest.(check (array (float 1e-12))) "normalize" [| 0.25; 0.75 |]
    (Divergence.normalize [| 1.; 3. |]);
  Alcotest.check_raises "zero sum" (Invalid_argument "Divergence.normalize: non-positive sum")
    (fun () -> ignore (Divergence.normalize [| 0.; 0. |]))

(* --------------------------------------------------------- Edit distance *)

let test_edit_known () =
  check_float "kitten/sitting" 3. (Edit_distance.levenshtein "kitten" "sitting");
  check_float "empty" 3. (Edit_distance.levenshtein "" "abc");
  check_float "self" 0. (Edit_distance.levenshtein "same" "same")

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

(* --------------------------------------------------------------- Alignment *)

module Alignment = Dbh_metrics.Alignment

(* [global_distance a b] is 2·max(|a|,|b|) minus the Needleman–Wunsch
   score. *)
let test_nw_known () =
  (* Identical strings: all matches, score = 2n. *)
  check_float "identical" 0. (Alignment.global_distance "ACGT" "ACGT");
  (* One substitution: 3 matches + 1 mismatch = 6 - 1 = 5. *)
  check_float "one mismatch" (8. -. 5.) (Alignment.global_distance "ACGT" "ACGA");
  (* One insertion: 4 matches + 1 gap = 8 - 2 = 6. *)
  check_float "one gap" (10. -. 6.) (Alignment.global_distance "ACGT" "ACGGT");
  check_float "empty vs s" (8. -. -8.) (Alignment.global_distance "" "ACGT")

let test_global_distance () =
  check_float "self" 0. (Alignment.global_distance "ACGTACGT" "ACGTACGT");
  Alcotest.(check bool) "positive on diff" true (Alignment.global_distance "ACGT" "TTTT" > 0.);
  (* Symmetric by construction. *)
  check_float "symmetric"
    (Alignment.global_distance "ACGTAC" "AGTC")
    (Alignment.global_distance "AGTC" "ACGTAC")

(* [local_distance a b] is 1 − sw(a,b) / sqrt (sw(a,a) · sw(b,b)) over
   the Smith–Waterman score; a string's self-score is 2 per symbol. *)
let test_sw_known () =
  (* Shared substring "CGT": 3 matches = 6, against self-scores of 12. *)
  check_float "local motif" (1. -. (6. /. 12.)) (Alignment.local_distance "AACGTA" "TTCGTT");
  (* Disjoint alphabets: best local score includes at most 0. *)
  check_float "nothing shared" 1. (Alignment.local_distance "AAAA" "TTTT");
  Alcotest.(check bool) "nonnegative" true (Alignment.local_distance "AC" "GT" <= 1.)

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

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dbh_metrics"
    [
      ( "geom",
        [
          Alcotest.test_case "basics" `Quick test_geom_basics;
          Alcotest.test_case "rotate" `Quick test_geom_rotate;
          Alcotest.test_case "angle" `Quick test_geom_angle;
          Alcotest.test_case "resample" `Quick test_geom_resample;
          Alcotest.test_case "resample degenerate" `Quick test_geom_resample_degenerate;
          Alcotest.test_case "mean pairwise" `Quick test_geom_mean_pairwise;
        ] );
      ( "minkowski",
        Alcotest.test_case "known values" `Quick test_minkowski_known
        :: Alcotest.test_case "dimension mismatch" `Quick test_minkowski_mismatch
        :: qsuite
             [ prop_metric "l2 metric axioms" Minkowski.l2 ] );
      ("hamming", [ Alcotest.test_case "known values" `Quick test_hamming ]);
      ( "divergence",
        Alcotest.test_case "kl asymmetric" `Quick test_kl_asymmetric
        :: Alcotest.test_case "normalize" `Quick test_normalize
        :: qsuite [ prop_kl_nonneg; prop_chi2_sym ] );
      ( "edit_distance",
        Alcotest.test_case "known values" `Quick test_edit_known
        :: qsuite [ prop_edit_metric ] );
      ( "dtw",
        Alcotest.test_case "identity" `Quick test_dtw_identity
        :: Alcotest.test_case "known values" `Quick test_dtw_known
        :: Alcotest.test_case "non-metric witness" `Quick test_dtw_non_metric
        :: qsuite
             [ prop_dtw_symmetric; prop_dtw_bounded_by_diagonal; prop_dtw_points_bit_identical ]
        @ Alcotest.test_case "2d points" `Quick test_dtw_points
          :: Alcotest.test_case "points: NaN minimum leaves infinity" `Quick
               test_dtw_points_nan_minimum
          :: Alcotest.test_case "points = distance on 500 pen pairs" `Quick
               test_dtw_points_pen_pairs
          :: Alcotest.test_case "points allocates only its rows" `Quick test_dtw_points_allocation
          :: qsuite [ prop_dtw_points_bit_identical_nonfinite ]
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
