(* Tests for Dbh_space.Space. *)

module Space = Dbh_space.Space
module Rng = Dbh_util.Rng

let l2 (a : float array) (b : float array) =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. ((x -. b.(i)) *. (x -. b.(i)))) a;
  sqrt !acc

let l2_space = Space.make ~name:"l2" l2

let test_counting () =
  let counted, counter = Space.with_counter l2_space in
  Alcotest.(check int) "fresh" 0 (Space.count counter);
  ignore (counted.Space.distance [| 0. |] [| 1. |]);
  ignore (counted.Space.distance [| 0. |] [| 2. |]);
  Alcotest.(check int) "two calls" 2 (Space.count counter);
  Space.reset counter;
  Alcotest.(check int) "reset" 0 (Space.count counter)

let test_shared_counter () =
  let counter = Space.counter () in
  let a = Space.counted counter l2_space in
  let b = Space.counted counter l2_space in
  ignore (a.Space.distance [| 0. |] [| 1. |]);
  ignore (b.Space.distance [| 0. |] [| 1. |]);
  Alcotest.(check int) "shared tally" 2 (Space.count counter)

let test_counted_preserves_distance () =
  let counted, _ = Space.with_counter l2_space in
  Alcotest.(check (float 1e-12))
    "same value" (l2 [| 1.; 2. |] [| 4.; 6. |])
    (counted.Space.distance [| 1.; 2. |] [| 4.; 6. |])

let test_of_matrix () =
  let m = [| [| 0.; 1.; 2. |]; [| 1.; 0.; 3. |]; [| 2.; 3.; 0. |] |] in
  let s = Space.of_matrix m in
  Alcotest.(check (float 0.)) "lookup" 3. (s.Space.distance 1 2);
  Alcotest.(check (float 0.)) "diag" 0. (s.Space.distance 0 0)

let test_of_matrix_ragged () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Space.of_matrix: matrix not square")
    (fun () -> ignore (Space.of_matrix [| [| 0. |]; [| 1.; 2. |] |]))

let test_of_matrix_rejects_nan () =
  Alcotest.check_raises "nan entry" (Invalid_argument "Space.of_matrix: NaN entry") (fun () ->
      ignore (Space.of_matrix [| [| 0.; Float.nan |]; [| 1.; 0. |] |]))

let test_of_matrix_rejects_negative () =
  Alcotest.check_raises "negative entry" (Invalid_argument "Space.of_matrix: negative entry")
    (fun () -> ignore (Space.of_matrix [| [| 0.; -1. |]; [| -1.; 0. |] |]))

let test_random_metric_matrix () =
  let rng = Rng.create 1 in
  let m = Space.random_metric_matrix rng 20 in
  for i = 0 to 19 do
    Alcotest.(check (float 0.)) "zero diagonal" 0. m.(i).(i);
    for j = 0 to 19 do
      if i <> j then begin
        Alcotest.(check (float 0.)) "symmetric" m.(i).(j) m.(j).(i);
        Alcotest.(check bool) "in [1,2]" true (m.(i).(j) >= 1. && m.(i).(j) <= 2.)
      end
    done
  done;
  (* Distances in [1,2] always satisfy the triangle inequality. *)
  let s = Space.of_matrix m in
  let sample = Array.init 20 (fun i -> i) in
  Alcotest.(check int) "metric" 0 (Space.triangle_violations s sample)

let test_transform () =
  let s = Space.transform ~name:"len" (fun str -> [| float_of_int (String.length str) |]) l2_space in
  Alcotest.(check (float 0.)) "pullback" 2. (s.Space.distance "a" "abc")

let test_is_symmetric () =
  let asym = Space.make ~name:"asym" (fun a b -> if a < b then 1. else 2.) in
  Alcotest.(check bool) "detects asymmetry" false (Space.is_symmetric asym [| 1; 2; 3 |]);
  Alcotest.(check bool) "l2 symmetric" true
    (Space.is_symmetric l2_space [| [| 0. |]; [| 1. |]; [| 5. |] |])

let test_triangle_violations () =
  (* d(a,c)=10 > d(a,b)+d(b,c)=2: a blatant violation. *)
  let m = [| [| 0.; 1.; 10. |]; [| 1.; 0.; 1. |]; [| 10.; 1.; 0. |] |] in
  let s = Space.of_matrix m in
  Alcotest.(check bool) "violations found" true
    (Space.triangle_violations s [| 0; 1; 2 |] > 0)

let test_rename () =
  let s = Space.rename "other" l2_space in
  Alcotest.(check string) "renamed" "other" s.Space.name;
  Alcotest.(check string) "original intact" "l2" l2_space.Space.name

let () =
  Alcotest.run "dbh_space"
    [
      ( "space",
        [
          Alcotest.test_case "counting" `Quick test_counting;
          Alcotest.test_case "shared counter" `Quick test_shared_counter;
          Alcotest.test_case "counted preserves distance" `Quick test_counted_preserves_distance;
          Alcotest.test_case "of_matrix" `Quick test_of_matrix;
          Alcotest.test_case "of_matrix ragged" `Quick test_of_matrix_ragged;
          Alcotest.test_case "of_matrix rejects NaN" `Quick test_of_matrix_rejects_nan;
          Alcotest.test_case "of_matrix rejects negative" `Quick test_of_matrix_rejects_negative;
          Alcotest.test_case "random metric matrix" `Quick test_random_metric_matrix;
          Alcotest.test_case "transform" `Quick test_transform;
          Alcotest.test_case "is_symmetric" `Quick test_is_symmetric;
          Alcotest.test_case "triangle violations" `Quick test_triangle_violations;
          Alcotest.test_case "rename" `Quick test_rename;
        ] );
    ]
