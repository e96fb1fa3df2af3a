(* Tests for Dbh_util: Rng, Stats, Bounded_heap, Pqueue, Bitvec, Binio, Vec. *)

module Rng = Dbh_util.Rng
module Stats = Dbh_util.Stats
module Bounded_heap = Dbh_util.Bounded_heap
module Pqueue = Dbh_util.Pqueue
module Bitvec = Dbh_util.Bitvec

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = Array.init 16 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let b = Rng.copy a in
  let x = Rng.bits64 a in
  let y = Rng.bits64 b in
  Alcotest.(check int64) "copy replays" x y

let test_rng_split () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = Array.init 16 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "parent/child differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 12 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "in closed range" true (v >= -3 && v <= 3)
  done

let test_rng_int_covers_all () =
  let rng = Rng.create 13 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create 14 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 15 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian ~mu:1.5 ~sigma:2. rng) in
  check_float_loose 0.1 "mean" 1.5 (Stats.mean xs);
  check_float_loose 0.1 "stddev" 2. (Stats.stddev xs)

let test_rng_exponential_mean () =
  let rng = Rng.create 16 in
  let xs = Array.init 20000 (fun _ -> Rng.exponential rng 2.) in
  check_float_loose 0.03 "mean 1/lambda" 0.5 (Stats.mean xs);
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.)) xs

let test_rng_sample_indices_distinct () =
  let rng = Rng.create 18 in
  for _ = 1 to 50 do
    let sample = Rng.sample_indices rng 10 30 in
    let sorted = Array.copy sample in
    Array.sort compare sorted;
    Alcotest.(check int) "10 drawn" 10 (Array.length sample);
    for i = 0 to 8 do
      Alcotest.(check bool) "distinct" true (sorted.(i) < sorted.(i + 1))
    done;
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) sample
  done

let test_rng_sample_all () =
  let rng = Rng.create 19 in
  let sample = Rng.sample_indices rng 5 5 in
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "full permutation" [| 0; 1; 2; 3; 4 |] sorted

let test_rng_subsample_large_request () =
  let rng = Rng.create 20 in
  let arr = [| 'a'; 'b'; 'c' |] in
  let s = Rng.subsample rng 10 arr in
  Alcotest.(check int) "whole array" 3 (Array.length s)

let test_rng_weighted_choice () =
  let rng = Rng.create 21 in
  let weights = [| 0.; 1.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10000 do
    let i = Rng.choose_index_weighted rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(0);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(1) in
  Alcotest.(check bool) "3:1 ratio approx" true (ratio > 2.5 && ratio < 3.5)

let test_rng_permutation_uniformish () =
  let rng = Rng.create 22 in
  (* First element of a permutation of 4 should be ~uniform. *)
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let p = Rng.permutation rng 4 in
    counts.(p.(0)) <- counts.(p.(0)) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly 2000 each" true (c > 1700 && c < 2300))
    counts

(* ---------------------------------------------------------------- Stats *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_variance () =
  check_float "variance" 1.25 (Stats.variance [| 1.; 2.; 3.; 4. |]);
  check_float "zero variance" 0. (Stats.variance [| 5.; 5.; 5. |])

let test_stats_sum_kahan () =
  (* Many tiny values plus a large one: naive sum loses precision. *)
  let xs = Array.make 10001 1e-10 in
  xs.(0) <- 1e10;
  let s = Stats.sum xs in
  check_float_loose 1e-4 "kahan" (1e10 +. 1e-6) s

let test_stats_median () =
  check_float "odd" 3. (Stats.median [| 5.; 3.; 1. |]);
  check_float "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

let test_stats_quantile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "q0" 10. (Stats.quantile xs 0.);
  check_float "q1" 50. (Stats.quantile xs 1.);
  check_float "q0.5" 30. (Stats.quantile xs 0.5);
  check_float "q0.25 interpolated" 20. (Stats.quantile xs 0.25);
  check_float "q0.1" 14. (Stats.quantile xs 0.1)

let test_stats_quantile_singleton () =
  check_float "singleton" 7. (Stats.quantile [| 7. |] 0.3)

let test_stats_minmax () =
  check_float "min" (-2.) (Stats.minimum [| 3.; -2.; 7. |]);
  check_float "max" 7. (Stats.maximum [| 3.; -2.; 7. |])

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 4 total;
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "low bin" 2 c0;
  Alcotest.(check int) "high bin (closed)" 2 c1

let test_stats_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "perfect" 1. (Stats.pearson xs [| 2.; 4.; 6.; 8. |]);
  check_float "anti" (-1.) (Stats.pearson xs [| 8.; 6.; 4.; 2. |]);
  check_float "constant side" 0. (Stats.pearson xs [| 1.; 1.; 1.; 1. |])

let test_stats_mean_ci95 () =
  let m, hw = Stats.mean_ci95 [| 1.; 2.; 3. |] in
  check_float "mean" 2. m;
  Alcotest.(check bool) "positive halfwidth" true (hw > 0.);
  let _, hw1 = Stats.mean_ci95 [| 42. |] in
  check_float "singleton halfwidth" 0. hw1

(* Floats with duplicates, signed zeros, infinities and NaNs of both
   signs. *)
let awkward_floats =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (4, float_range (-100.) 100.);
        (3, map float_of_int (int_range (-3) 3));
        (2, oneofl [ nan; -.nan; infinity; neg_infinity; 0.; -0. ]);
      ]
  in
  QCheck.make ~print:QCheck.Print.(array float) (array_size (int_range 0 80) value)

(* Elementwise equal under [compare]: -0. may stand where 0. does, and
   one NaN where another does, as in any two correct sorts. *)
let prop_sort_floats_matches_sort =
  QCheck.Test.make ~name:"sort_floats = Array.sort compare" ~count:500 awkward_floats
    (fun xs ->
      let mine = Array.copy xs and reference = Array.copy xs in
      Stats.sort_floats mine;
      Array.sort compare reference;
      Array.for_all2 (fun a b -> compare a b = 0) mine reference)

(* The threshold fit sorts one 500-float sample per pivot pair; a warmed
   sort must not allocate. *)
let test_sort_floats_allocates_nothing () =
  let rng = Rng.create 5 in
  let sample = Array.init 500 (fun _ -> Rng.float rng 10.) in
  let work = Array.copy sample in
  let sort () =
    Array.blit sample 0 work 0 500;
    Stats.sort_floats work
  in
  sort ();
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    sort ()
  done;
  Gc.minor ();
  let words = Gc.minor_words () -. before in
  let reference = Array.copy sample in
  Array.sort compare reference;
  Alcotest.(check bool) "sorted" true (work = reference);
  Alcotest.(check (float 0.)) "minor words over 1,000 sorts of 500 floats" 0. words

(* --------------------------------------------------------- Bounded_heap *)

let test_heap_keeps_k_smallest () =
  let h = Bounded_heap.create 3 in
  List.iter (fun (k, v) -> ignore (Bounded_heap.push h k v)) [ (5., 'a'); (1., 'b'); (4., 'c'); (2., 'd'); (9., 'e') ];
  let kept = Bounded_heap.to_sorted_list h in
  Alcotest.(check (list (pair (float 0.) char)))
    "three smallest sorted"
    [ (1., 'b'); (2., 'd'); (4., 'c') ]
    kept

let test_heap_threshold () =
  let h = Bounded_heap.create 2 in
  check_float "empty threshold" infinity (Bounded_heap.threshold h);
  ignore (Bounded_heap.push h 3. ());
  check_float "not full yet" infinity (Bounded_heap.threshold h);
  ignore (Bounded_heap.push h 1. ());
  check_float "worst kept" 3. (Bounded_heap.threshold h);
  Alcotest.(check bool) "reject worse" false (Bounded_heap.push h 5. ());
  Alcotest.(check bool) "accept better" true (Bounded_heap.push h 2. ());
  check_float "threshold updated" 2. (Bounded_heap.threshold h)

let test_heap_best_and_clear () =
  let h = Bounded_heap.create 4 in
  Alcotest.(check bool) "empty best" true (Bounded_heap.best h = None);
  ignore (Bounded_heap.push h 2. "two");
  ignore (Bounded_heap.push h 1. "one");
  (match Bounded_heap.best h with
  | Some (d, v) ->
      check_float "best key" 1. d;
      Alcotest.(check string) "best value" "one" v
  | None -> Alcotest.fail "expected best");
  Bounded_heap.clear h;
  Alcotest.(check int) "cleared" 0 (Bounded_heap.size h)

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"bounded heap = k smallest of sort" ~count:200
    QCheck.(pair (int_range 1 10) (list (float_range (-100.) 100.)))
    (fun (k, xs) ->
      let h = Bounded_heap.create k in
      List.iteri (fun i x -> ignore (Bounded_heap.push h x i)) xs;
      let kept = Bounded_heap.to_sorted_list h |> List.map fst in
      let expected =
        List.sort compare xs |> List.filteri (fun i _ -> i < k)
      in
      kept = expected)

(* ----------------------------------------------------------------- Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k (int_of_float k)) [ 5.; 1.; 3.; 2.; 4. ];
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.))) "ascending" [ 1.; 2.; 3.; 4.; 5. ] (List.rev !popped)

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty peek" true (Pqueue.peek q = None);
  Pqueue.push q 2. "b";
  Pqueue.push q 1. "a";
  (match Pqueue.peek q with
  | Some (k, v) ->
      check_float "peek min" 1. k;
      Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "peek keeps size" 2 (Pqueue.size q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list (float_range (-1e6) 1e6))
    (fun xs ->
      let q = Pqueue.create () in
      List.iter (fun x -> Pqueue.push q x ()) xs;
      let rec drain acc =
        match Pqueue.pop q with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* ----------------------------------------------------------------- Bitvec *)

let test_bitvec_roundtrip () =
  let v = Bitvec.create 130 in
  Bitvec.set v 0 true;
  Bitvec.set v 62 true;
  Bitvec.set v 129 true;
  Alcotest.(check bool) "bit 0" true (Bitvec.get v 0);
  Alcotest.(check bool) "bit 1" false (Bitvec.get v 1);
  Alcotest.(check bool) "bit 62 (word boundary)" true (Bitvec.get v 62);
  Alcotest.(check bool) "bit 129" true (Bitvec.get v 129);
  Bitvec.set v 62 false;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 62)

let test_bitvec_popcount () =
  Alcotest.(check int) "0" 0 (Bitvec.popcount 0);
  Alcotest.(check int) "1" 1 (Bitvec.popcount 1);
  Alcotest.(check int) "255" 8 (Bitvec.popcount 255);
  Alcotest.(check int) "max_int" 62 (Bitvec.popcount max_int)

let prop_bitvec_hamming =
  QCheck.Test.make ~name:"bitvec hamming = bool-array hamming" ~count:200
    QCheck.(pair (list bool) (list bool))
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      let a = Array.of_list (List.filteri (fun i _ -> i < n) a) in
      let b = Array.of_list (List.filteri (fun i _ -> i < n) b) in
      let expected = ref 0 in
      Array.iteri (fun i x -> if x <> b.(i) then incr expected) a;
      Bitvec.hamming (Bitvec.of_bools a) (Bitvec.of_bools b) = !expected)

let prop_bitvec_bools_roundtrip =
  QCheck.Test.make ~name:"of_bools/to_bools roundtrip" ~count:200
    QCheck.(list bool)
    (fun bs ->
      let arr = Array.of_list bs in
      Bitvec.to_bools (Bitvec.of_bools arr) = arr)

let test_bitvec_agreement () =
  let a = Bitvec.of_bools [| true; false; true; true |] in
  let b = Bitvec.of_bools [| true; true; true; false |] in
  check_float "agreement" 0.5 (Bitvec.agreement a b);
  check_float "self" 1. (Bitvec.agreement a a)

(* ------------------------------------------------------------------ Binio *)

let test_binio_roundtrip () =
  let buf = Buffer.create 64 in
  Dbh_util.Binio.write_int buf 42;
  Dbh_util.Binio.write_int buf (-7);
  Dbh_util.Binio.write_int buf max_int;
  Dbh_util.Binio.write_float buf 3.14159;
  Dbh_util.Binio.write_float buf (-0.);
  Dbh_util.Binio.write_float buf infinity;
  Dbh_util.Binio.write_string buf "hello\x00world";
  Dbh_util.Binio.write_int_array buf [| 1; 2; 3 |];
  Dbh_util.Binio.write_float_array buf [| 1.5; -2.5 |];
  let r = Dbh_util.Binio.reader (Buffer.contents buf) in
  Alcotest.(check int) "int" 42 (Dbh_util.Binio.read_int r);
  Alcotest.(check int) "negative" (-7) (Dbh_util.Binio.read_int r);
  Alcotest.(check int) "max_int" max_int (Dbh_util.Binio.read_int r);
  check_float "float" 3.14159 (Dbh_util.Binio.read_float r);
  Alcotest.(check bool) "neg zero" true (Dbh_util.Binio.read_float r = 0.);
  check_float "infinity" infinity (Dbh_util.Binio.read_float r);
  Alcotest.(check string) "string with nul" "hello\x00world" (Dbh_util.Binio.read_string r);
  Alcotest.(check (array int)) "int array" [| 1; 2; 3 |] (Dbh_util.Binio.read_int_array r);
  Alcotest.(check (array (float 0.))) "float array" [| 1.5; -2.5 |]
    (Dbh_util.Binio.read_float_array r);
  Alcotest.(check bool) "consumed" true (Dbh_util.Binio.at_end r)

let test_binio_truncation () =
  let raises_corrupt read data =
    match read (Dbh_util.Binio.reader data) with
    | _ -> false
    | exception Dbh_util.Binio.Corrupt _ -> true
  in
  let buf = Buffer.create 8 in
  Dbh_util.Binio.write_int buf 5;
  let partial = String.sub (Buffer.contents buf) 0 4 in
  Alcotest.(check bool) "raises Corrupt" true (raises_corrupt Dbh_util.Binio.read_int partial);
  (* A length prefix near [max_int] must not wrap the bounds check. *)
  let huge = Buffer.create 16 in
  Dbh_util.Binio.write_int huge max_int;
  Buffer.add_string huge "abc";
  Alcotest.(check bool) "length max_int raises Corrupt" true
    (raises_corrupt Dbh_util.Binio.read_string (Buffer.contents huge))

(* The byte format, pinned: every fixed-width value is one 64-bit
   little-endian word (ints two's complement, floats IEEE-754 bits), so
   snapshots written before the word-at-a-time codec keep loading. *)
let test_binio_known_answers () =
  let module B = Dbh_util.Binio in
  let hex s = String.concat " " (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s))) in
  let bytes_of write v =
    let buf = Buffer.create 8 in
    write buf v;
    Buffer.contents buf
  in
  let check_int label v expected =
    let s = bytes_of B.write_int v in
    Alcotest.(check string) label expected (hex s);
    Alcotest.(check int) (label ^ " reads back") v (B.read_int (B.reader s))
  in
  check_int "0" 0 "00 00 00 00 00 00 00 00";
  check_int "-1" (-1) "ff ff ff ff ff ff ff ff";
  check_int "min_int" min_int "00 00 00 00 00 00 00 c0";
  check_int "max_int" max_int "ff ff ff ff ff ff ff 3f";
  check_int "0x0102030405060708" 0x0102030405060708 "08 07 06 05 04 03 02 01";
  let f = bytes_of B.write_float (-1.5) in
  Alcotest.(check string) "-1.5" "00 00 00 00 00 00 f8 bf" (hex f);
  Alcotest.(check bool) "-1.5 reads back" true (B.read_float (B.reader f) = -1.5);
  let w = bytes_of B.write_int64 Int64.min_int in
  Alcotest.(check string) "int64 min" "00 00 00 00 00 00 00 80" (hex w);
  Alcotest.(check bool) "int64 min reads back" true
    (Int64.equal (B.read_int64 (B.reader w)) Int64.min_int);
  Alcotest.(check string) "int array" "02 00 00 00 00 00 00 00 ff ff ff ff ff ff ff ff 08 07 06 05 04 03 02 01"
    (hex (bytes_of B.write_int_array [| -1; 0x0102030405060708 |]))

let prop_binio_floats =
  QCheck.Test.make ~name:"binio float roundtrip" ~count:300
    QCheck.(float_range (-1e300) 1e300)
    (fun f ->
      let buf = Buffer.create 8 in
      Dbh_util.Binio.write_float buf f;
      Dbh_util.Binio.read_float (Dbh_util.Binio.reader (Buffer.contents buf)) = f)

(* -------------------------------------------------------------------- Vec *)

let test_vec_basics () =
  let v = Dbh_util.Vec.create () in
  Alcotest.(check int) "empty" 0 (Dbh_util.Vec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "push returns index" i (Dbh_util.Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Dbh_util.Vec.length v);
  Alcotest.(check int) "get" 42 (Dbh_util.Vec.get v 21);
  Dbh_util.Vec.set v 21 0;
  Alcotest.(check int) "set" 0 (Dbh_util.Vec.get v 21);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Dbh_util.Vec.get v 100))

let test_vec_of_array_copies () =
  let arr = [| 1; 2; 3 |] in
  let v = Dbh_util.Vec.of_array arr in
  arr.(0) <- 99;
  Alcotest.(check int) "copied" 1 (Dbh_util.Vec.get v 0);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3 |] (Dbh_util.Vec.to_array v)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dbh_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "int covers all" `Quick test_rng_int_covers_all;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_indices_distinct;
          Alcotest.test_case "sample all" `Quick test_rng_sample_all;
          Alcotest.test_case "subsample large" `Quick test_rng_subsample_large_request;
          Alcotest.test_case "weighted choice" `Quick test_rng_weighted_choice;
          Alcotest.test_case "permutation uniform" `Quick test_rng_permutation_uniformish;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "kahan sum" `Quick test_stats_sum_kahan;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "quantile singleton" `Quick test_stats_quantile_singleton;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "mean ci95" `Quick test_stats_mean_ci95;
          Alcotest.test_case "warmed sort_floats allocates nothing" `Quick
            test_sort_floats_allocates_nothing;
        ]
        @ qsuite [ prop_sort_floats_matches_sort ] );
      ( "bounded_heap",
        Alcotest.test_case "keeps k smallest" `Quick test_heap_keeps_k_smallest
        :: Alcotest.test_case "threshold" `Quick test_heap_threshold
        :: Alcotest.test_case "best/clear" `Quick test_heap_best_and_clear
        :: qsuite [ prop_heap_matches_sort ] );
      ( "pqueue",
        Alcotest.test_case "order" `Quick test_pqueue_order
        :: Alcotest.test_case "peek" `Quick test_pqueue_peek
        :: qsuite [ prop_pqueue_sorts ] );
      ( "bitvec",
        Alcotest.test_case "roundtrip" `Quick test_bitvec_roundtrip
        :: Alcotest.test_case "popcount" `Quick test_bitvec_popcount
        :: Alcotest.test_case "agreement" `Quick test_bitvec_agreement
        :: qsuite [ prop_bitvec_hamming; prop_bitvec_bools_roundtrip ] );
      ( "binio",
        Alcotest.test_case "roundtrip" `Quick test_binio_roundtrip
        :: Alcotest.test_case "truncation" `Quick test_binio_truncation
        :: Alcotest.test_case "known answers" `Quick test_binio_known_answers
        :: qsuite [ prop_binio_floats ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "of_array copies" `Quick test_vec_of_array_copies;
        ] );
    ]
