(* Tests for the hash family's construction and envelope: golden-fixture
   bit-identity of the paper's uniform draw, the Eq. 6 balance
   invariant, pooled-vs-sequential bit-identity, the versioned
   family-envelope read path (v1, and v2 under each legacy tag), and the
   Online rebuild hot swap under concurrent readers.

   DBH_TEST_DOMAINS picks the pool width (default 2; CI also runs 4). *)

module Rng = Dbh_util.Rng
module Pool = Dbh_util.Pool
module Binio = Dbh_util.Binio
module Minkowski = Dbh_metrics.Minkowski
module Hash_family = Dbh.Hash_family
module Builder = Dbh.Builder
module Online = Dbh.Online

let domains =
  match Sys.getenv_opt "DBH_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 1 -> d
      | _ -> invalid_arg "DBH_TEST_DOMAINS must be a positive integer")

let l2 = Minkowski.l2_space

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:4 n in
  db

let encode (v : float array) =
  let buf = Buffer.create 32 in
  Binio.write_float_array buf v;
  Buffer.contents buf

let decode s = Binio.read_float_array (Binio.reader s)

(* Bit-level float comparison: NaN-safe and distinguishes -0. *)
let check_float_bits what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" what a b

let check_families_identical label a b =
  Alcotest.(check int) (label ^ ": size") (Hash_family.size a) (Hash_family.size b);
  Alcotest.(check int) (label ^ ": num_pivots") (Hash_family.num_pivots a)
    (Hash_family.num_pivots b);
  let pa = Hash_family.pivots a and pb = Hash_family.pivots b in
  Array.iteri
    (fun i v ->
      Array.iteri
        (fun j x -> check_float_bits (Printf.sprintf "%s: pivot %d.%d" label i j) x pb.(i).(j))
        v)
    pa;
  for i = 0 to Hash_family.size a - 1 do
    let fa = Hash_family.fn a i and fb = Hash_family.fn b i in
    let ctx = Printf.sprintf "%s: fn %d" label i in
    Alcotest.(check int) (ctx ^ " p1") fa.Hash_family.p1 fb.Hash_family.p1;
    Alcotest.(check int) (ctx ^ " p2") fa.Hash_family.p2 fb.Hash_family.p2;
    check_float_bits (ctx ^ " d12") fa.Hash_family.d12 fb.Hash_family.d12;
    check_float_bits (ctx ^ " t1") fa.Hash_family.t1 fb.Hash_family.t1;
    check_float_bits (ctx ^ " t2") fa.Hash_family.t2 fb.Hash_family.t2;
    check_float_bits (ctx ^ " spread") fa.Hash_family.spread fb.Hash_family.spread
  done

(* ----------------------------------------------------- golden fixture *)

(* fixtures/family_v1_uniform.bin holds two v1 envelopes (no selector
   tag).  The first was built with exactly the recipe below, and today's
   build must reproduce it bit-for-bit: no change may move a single rng
   draw of the construction.  The second is a family of one-sided median
   thresholds, a construction builds no longer offer; it must still
   load. *)
let fixture_db () = test_db 42 300

let fixture_path =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
    "family_v1_uniform.bin"

let test_golden_fixture_bit_identity () =
  let data =
    let ic = open_in_bin fixture_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let r = Binio.reader data in
  let old1 = Hash_family.read ~decode ~space:l2 r in
  let old2 = Hash_family.read ~decode ~space:l2 r in
  let fresh1 =
    Hash_family.make ~rng:(Rng.create 4242) ~space:l2 ~num_pivots:24
      ~threshold_sample:200 ~max_functions:150 (fixture_db ())
  in
  Alcotest.(check int) "fixture family 1 size" 150 (Hash_family.size old1);
  Alcotest.(check int) "fixture family 2 size" 66 (Hash_family.size old2);
  check_families_identical "random-interval family" old1 fresh1;
  for i = 0 to Hash_family.size old2 - 1 do
    let f = Hash_family.fn old2 i in
    Alcotest.(check bool) (Printf.sprintf "median family fn %d: lower side open" i) true
      (f.Hash_family.t1 = neg_infinity);
    Alcotest.(check bool) (Printf.sprintf "median family fn %d: finite median" i) true
      (Float.is_finite f.Hash_family.t2)
  done

(* ------------------------------------------------------------- balance *)

(* Eq. 6: every interval carves out half the projection mass, so each
   function should map about half of held-out data to 0.  QCheck varies
   the build seed. *)
let prop_balance =
  let all = test_db 7 900 in
  let db = Array.sub all 0 600 in
  let holdout = Array.sub all 600 300 in
  QCheck.Test.make ~count:8 ~name:"every selector balances (Eq. 6)"
    QCheck.small_nat
    (fun seed ->
      let family =
        Hash_family.make ~rng:(Rng.create (1000 + seed)) ~space:l2 ~num_pivots:16
          ~threshold_sample:250 ~max_functions:60 db
      in
      let ok = ref true in
      for i = 0 to Hash_family.size family - 1 do
        let b = Hash_family.balance family i holdout in
        (* generous: the quantiles come from a 250-point sample *)
        if b < 0.25 || b > 0.75 then begin
          Printf.eprintf "seed %d fn %d balance %.3f\n" seed i b;
          ok := false
        end
      done;
      !ok)

(* --------------------------------------- pooled/sequential bit-identity *)

let test_pooled_bit_identity () =
  let db = test_db 11 500 in
  let build pool =
    Hash_family.make ?pool ~rng:(Rng.create 31) ~space:l2 ~num_pivots:20 ~threshold_sample:200
      ~max_functions:80 db
  in
  let seq = build None in
  Pool.with_pool ~domains (fun pool ->
      check_families_identical "pooled = sequential" seq (build (Some pool)))

(* --------------------------------------------------- versioned envelopes *)

let bytes family =
  let buf = Buffer.create 4096 in
  Hash_family.write ~encode buf family;
  Buffer.contents buf

(* A v2 envelope is its format tag, the legacy selector tag, then the
   family.  Each tag an earlier build wrote must load to the very same
   functions, and a re-saved family is written with the tag "uniform". *)
let test_v2_roundtrip_legacy_tags () =
  let db = test_db 13 400 in
  let family =
    Hash_family.make ~rng:(Rng.create 17) ~space:l2 ~num_pivots:14 ~threshold_sample:150
      ~max_functions:40 db
  in
  let written = bytes family in
  let tag_bytes tag =
    let buf = Buffer.create 16 in
    Binio.write_string buf tag;
    Buffer.contents buf
  in
  let head = tag_bytes "DBH-family-v2" ^ tag_bytes "uniform" in
  Alcotest.(check string) "envelope head" head (String.sub written 0 (String.length head));
  let body = String.sub written (String.length head) (String.length written - String.length head) in
  List.iter
    (fun tag ->
      let retagged = tag_bytes "DBH-family-v2" ^ tag_bytes tag ^ body in
      let back = Hash_family.read ~decode ~space:l2 (Binio.reader retagged) in
      check_families_identical (tag ^ ": round-trip") family back;
      Alcotest.(check string) (tag ^ ": re-saved as uniform") written (bytes back))
    [ "uniform"; "median"; "density"; "nsh" ]

(* The flat function table against an independent recomputation: on
   300 random objects, every bit [eval_fns] writes into a
   family row equals the interval test of [fn i]'s view on
   [Projection.project_with] over the object's raw pivot distances, and
   every [margin] equals the same projection's normalized distance to
   its nearest finite threshold.  Both hold for the built family and for
   its [write]/[read] round trip, and [write] -> [read] -> [write]
   reproduces the bytes. *)
let test_flat_table_matches_reference () =
  let db = test_db 23 400 in
  let objects = test_db 29 300 in
  let check label family =
    let n = Hash_family.size family in
    let all = Array.init n Fun.id and row = Hash_family.row n in
    let pivots = Hash_family.pivots family in
    Array.iteri
      (fun o x ->
        let cache = Hash_family.cache family x in
        Hash_family.eval_fns family cache row all;
        let cells = Hash_family.row_cells row in
        let dist = Array.map (fun p -> l2.Dbh_space.Space.distance x p) pivots in
        for i = 0 to n - 1 do
          let f = Hash_family.fn family i in
          let v =
            Dbh.Projection.project_with ~d1:dist.(f.Hash_family.p1) ~d2:dist.(f.Hash_family.p2)
              ~d12:f.Hash_family.d12
          in
          let bit = v >= f.Hash_family.t1 && v <= f.Hash_family.t2 in
          if Bytes.get cells i <> if bit then '\001' else '\000' then
            Alcotest.failf "%s: object %d fn %d: eval_fns disagrees with the reference" label o i;
          let gap t = if Float.is_finite t then Float.abs (v -. t) else infinity in
          check_float_bits
            (Printf.sprintf "%s: object %d fn %d margin" label o i)
            (Float.min (gap f.Hash_family.t1) (gap f.Hash_family.t2) /. f.Hash_family.spread)
            (Hash_family.margin family cache i)
        done;
        Hash_family.clear_row row)
      objects
  in
  let family =
    Hash_family.make ~rng:(Rng.create 37) ~space:l2 ~num_pivots:16 ~threshold_sample:150
      ~max_functions:60 db
  in
  let written = bytes family in
  let back = Hash_family.read ~decode ~space:l2 (Binio.reader written) in
  Alcotest.(check string) "write -> read -> write" written (bytes back);
  check "built" family;
  check "read back" back

let test_corrupt_selector_tag_rejected () =
  let db = test_db 13 200 in
  let family =
    Hash_family.make ~rng:(Rng.create 19) ~space:l2 ~num_pivots:10 ~threshold_sample:100 db
  in
  let buf = Buffer.create 4096 in
  Hash_family.write ~encode buf family;
  let s = Buffer.contents buf in
  (* Corrupt the selector tag: "uniform" -> "unifxrm". *)
  let rec find_sub i =
    if i + 7 > String.length s then Alcotest.fail "tag not found in envelope"
    else if String.sub s i 7 = "uniform" then i
    else find_sub (i + 1)
  in
  let i = find_sub 0 in
  let bad = Bytes.of_string s in
  Bytes.set bad (i + 4) 'x';
  match Hash_family.read ~decode ~space:l2 (Binio.reader (Bytes.to_string bad)) with
  | exception Binio.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt selector tag must be rejected"

(* ------------------------------------------------------------- rebuild *)

let test_rebuild_hot_swap_chaos () =
  (* Reader domains hammer search while the writer rebuilds repeatedly:
     readers must never crash, block, or see a torn generation — every
     answer must be a live handle with a finite distance. *)
  let db = test_db 37 400 in
  let config =
    { Builder.default_config with num_pivots = 16; num_sample_queries = 40; db_sample = 80 }
  in
  let t = Online.create ~rng:(Rng.create 41) ~space:l2 ~config ~target_accuracy:0.9 db in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let readers =
    List.init (max 2 domains) (fun r ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              let q = db.((!i * 7) + r) in
              (match (Online.search t q).Online.nn with
              | Some (h, d) ->
                  if h < 0 || h >= 400 || not (Float.is_finite d) then
                    Atomic.incr failures
              | None -> Atomic.incr failures);
              i := (!i + 1) mod 50
            done))
  in
  for _ = 0 to 2 do
    Online.rebuild_now t
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get failures);
  Alcotest.(check int) "rebuilds counted" 3 (Online.rebuilds t)

let () =
  Alcotest.run "dbh_selector"
    [
      ( "golden",
        [ Alcotest.test_case "v1 fixture bit-identity" `Quick test_golden_fixture_bit_identity ] );
      ("balance", [ QCheck_alcotest.to_alcotest prop_balance ]);
      ( "parallel",
        [ Alcotest.test_case "pooled = sequential per selector" `Slow test_pooled_bit_identity ] );
      ( "persistence",
        [
          Alcotest.test_case "v2 round-trip, legacy tags load" `Quick
            test_v2_roundtrip_legacy_tags;
          Alcotest.test_case "corrupt selector tag rejected" `Quick
            test_corrupt_selector_tag_rejected;
          Alcotest.test_case "flat table = reference recomputation" `Quick
            test_flat_table_matches_reference;
        ] );
      ( "rebuild",
        [
          Alcotest.test_case "hot swap under concurrent readers" `Slow
            test_rebuild_hot_swap_chaos;
        ] );
    ]
