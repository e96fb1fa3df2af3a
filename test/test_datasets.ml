(* Tests for Dbh_datasets: templates, pen digits, raster, image digits,
   hand shapes, vectors, strings, documents, DNA. *)

module Rng = Dbh_util.Rng
module Geom = Dbh_metrics.Geom
module Space = Dbh_space.Space
module Digit_templates = Dbh_datasets.Digit_templates
module Pen_digits = Dbh_datasets.Pen_digits
module Raster = Dbh_datasets.Raster
module Image_digits = Dbh_datasets.Image_digits
module Hand_shapes = Dbh_datasets.Hand_shapes
module Vectors = Dbh_datasets.Vectors
module Strings = Dbh_datasets.Strings

let check_loose tol = Alcotest.(check (float tol))

(* Mean within-class vs. cross-class distance separation: the workhorse
   check that a synthetic dataset has usable nearest-neighbor structure. *)
let class_separation space instances labels ~samples rng =
  let n = Array.length instances in
  let within = ref [] and cross = ref [] in
  for _ = 1 to samples do
    let i = Rng.int rng n and j = Rng.int rng n in
    if i <> j then begin
      let d = space.Space.distance instances.(i) instances.(j) in
      if labels.(i) = labels.(j) then within := d :: !within else cross := d :: !cross
    end
  done;
  ( Dbh_util.Stats.mean (Array.of_list !within),
    Dbh_util.Stats.mean (Array.of_list !cross) )

(* ------------------------------------------------------------- Templates *)

let test_templates_all_digits () =
  for d = 0 to 9 do
    let strokes = Digit_templates.strokes d in
    Alcotest.(check bool) "has strokes" true (List.length strokes >= 1);
    List.iter
      (fun s ->
        Alcotest.(check bool) "stroke has points" true (Array.length s >= 2);
        Array.iter
          (fun (p : Geom.point) ->
            Alcotest.(check bool) "in unit box" true
              (p.Geom.x >= -0.1 && p.Geom.x <= 1.1 && p.Geom.y >= -0.1 && p.Geom.y <= 1.1))
          s)
      strokes
  done;
  Alcotest.check_raises "not a digit"
    (Invalid_argument "Digit_templates.strokes: 10 is not a digit")
    (fun () -> ignore (Digit_templates.strokes 10))

let test_templates_distinct () =
  (* Flattened templates of different digits are visibly different shapes
     under DTW. *)
  let d = Dbh_metrics.Dtw.points in
  for a = 0 to 9 do
    for b = a + 1 to 9 do
      let ta = Geom.resample 32 (Digit_templates.flattened a) in
      let tb = Geom.resample 32 (Digit_templates.flattened b) in
      Alcotest.(check bool) "separated" true (d ta tb > 0.5)
    done
  done

(* ------------------------------------------------------------ Pen digits *)

let test_pen_digits_shapes () =
  let rng = Rng.create 1 in
  let inst = Pen_digits.generate ~rng 3 in
  Alcotest.(check int) "label" 3 inst.Pen_digits.label;
  Alcotest.(check int) "default points" 32 (Array.length inst.Pen_digits.points)

let test_pen_digits_balanced_set () =
  let rng = Rng.create 2 in
  let set = Pen_digits.generate_set ~rng 50 in
  Alcotest.(check int) "size" 50 (Array.length set);
  let counts = Array.make 10 0 in
  Array.iter (fun i -> counts.(i.Pen_digits.label) <- counts.(i.Pen_digits.label) + 1) set;
  Array.iter (fun c -> Alcotest.(check int) "balanced" 5 c) counts

let test_pen_digits_class_structure () =
  let rng = Rng.create 3 in
  let set = Pen_digits.generate_set ~rng 100 in
  let labels = Array.map (fun i -> i.Pen_digits.label) set in
  let within, cross =
    class_separation Pen_digits.space set labels ~samples:600 (Rng.create 4)
  in
  Alcotest.(check bool) "within < cross" true (within < 0.7 *. cross)

let test_pen_digits_determinism () =
  let a = Pen_digits.generate ~rng:(Rng.create 5) 7 in
  let b = Pen_digits.generate ~rng:(Rng.create 5) 7 in
  check_loose 1e-12 "same instance from same seed" 0.
    (Dbh_metrics.Dtw.points a.Pen_digits.points b.Pen_digits.points)

let test_pen_digits_custom_params () =
  let rng = Rng.create 6 in
  let params = { Pen_digits.default_params with num_points = 48 } in
  let inst = Pen_digits.generate ~rng ~params 0 in
  Alcotest.(check int) "custom length" 48 (Array.length inst.Pen_digits.points)

(* ---------------------------------------------------------------- Raster *)

let test_raster_draw_and_ink () =
  let img = Raster.create ~width:28 ~height:28 in
  Alcotest.(check int) "blank" 0 (Raster.ink_count img);
  Raster.draw_polyline img ~thickness:2 [| Geom.point 0.1 0.5; Geom.point 0.9 0.5 |];
  Alcotest.(check bool) "ink present" true (Raster.ink_count img > 10);
  (* A horizontal stroke at mid-height passes through the centre row. *)
  Alcotest.(check bool) "centre hit" true (Raster.get img 14 13 || Raster.get img 14 14)

let test_raster_out_of_bounds () =
  let img = Raster.create ~width:8 ~height:8 in
  Raster.set img (-1) 3;
  Raster.set img 100 3;
  Alcotest.(check int) "clipped writes ignored" 0 (Raster.ink_count img);
  Alcotest.(check bool) "oob read false" false (Raster.get img (-1) 0)

let test_raster_boundary () =
  let img = Raster.create ~width:16 ~height:16 in
  (* Solid 6x6 block: interior pixels are not boundary. *)
  for y = 4 to 9 do
    for x = 4 to 9 do
      Raster.set img x y
    done
  done;
  let boundary = Raster.boundary_points img in
  (* Perimeter of a 6x6 block = 20 pixels. *)
  Alcotest.(check int) "perimeter" 20 (Array.length boundary)

let test_raster_ascii () =
  let img = Raster.create ~width:4 ~height:2 in
  Raster.set img 0 0;
  Alcotest.(check string) "ascii" "#...\n....\n" (Raster.to_ascii img)

let test_raster_sample_points () =
  let rng = Rng.create 7 in
  let pts = Array.init 50 (fun i -> Geom.point (float_of_int i) 0.) in
  let s = Raster.sample_points ~rng 20 pts in
  Alcotest.(check int) "subsampled" 20 (Array.length s);
  let s2 = Raster.sample_points ~rng 100 pts in
  Alcotest.(check int) "small input returned whole" 50 (Array.length s2)

(* ----------------------------------------------------------- Image digits *)

let test_image_digits_shapes () =
  let rng = Rng.create 8 in
  let inst = Image_digits.generate ~rng 5 in
  Alcotest.(check int) "label" 5 inst.Image_digits.label;
  Alcotest.(check int) "sampled edges" 24 (Array.length inst.Image_digits.edge_points);
  Alcotest.(check int) "descriptor points" 24
    (Dbh_metrics.Shape_context.num_points inst.Image_digits.descriptor)

let test_image_digits_render () =
  let rng = Rng.create 9 in
  let img = Image_digits.render ~rng 0 in
  Alcotest.(check bool) "ink" true (Raster.ink_count img > 20)

let test_image_digits_class_structure () =
  let rng = Rng.create 10 in
  let set = Image_digits.generate_set ~rng 60 in
  let labels = Array.map (fun i -> i.Image_digits.label) set in
  let within, cross =
    class_separation Image_digits.space set labels ~samples:300 (Rng.create 11)
  in
  Alcotest.(check bool) "within < cross" true (within < 0.85 *. cross)

(* ------------------------------------------------------------ Hand shapes *)

let test_hands_database_layout () =
  let rng = Rng.create 12 in
  let db = Hand_shapes.database ~rng ~rotations_per_class:5 in
  Alcotest.(check int) "size" 100 (Array.length db);
  (* Labels blocked per class, orientations gridded. *)
  Alcotest.(check int) "first class" 0 db.(0).Hand_shapes.label;
  Alcotest.(check int) "last class" 19 db.(99).Hand_shapes.label;
  check_loose 1e-9 "first orientation" 0. db.(0).Hand_shapes.orientation

let test_hands_queries_are_noisy () =
  let rng = Rng.create 13 in
  let q = Hand_shapes.query ~rng () in
  Alcotest.(check bool) "valid label" true
    (q.Hand_shapes.label >= 0 && q.Hand_shapes.label < 20);
  (* Occlusion + clutter change the point count relative to clean. *)
  let clean = Hand_shapes.clean ~rng ~label:q.Hand_shapes.label ~orientation:0. in
  Alcotest.(check bool) "point count differs" true
    (Array.length q.Hand_shapes.points <> Array.length clean.Hand_shapes.points
    || q.Hand_shapes.points <> clean.Hand_shapes.points)

let test_hands_class_structure () =
  (* A noisy query is chamfer-closer to its own class at a nearby rotation
     than to a random other class, most of the time. *)
  let rng = Rng.create 14 in
  let db = Hand_shapes.database ~rng ~rotations_per_class:24 in
  let ok = ref 0 in
  let trials = 30 in
  for _ = 1 to trials do
    let q = Hand_shapes.query ~rng ~noise:{ Hand_shapes.default_noise with clutter = 0.05 } () in
    let best = ref (-1) and best_d = ref infinity in
    Array.iteri
      (fun j x ->
        let d = Hand_shapes.space.Space.distance q x in
        if d < !best_d then begin
          best_d := d;
          best := j
        end)
      db;
    if db.(!best).Hand_shapes.label = q.Hand_shapes.label then incr ok
  done;
  Alcotest.(check bool) "nn classifies most queries" true (!ok >= trials * 6 / 10)

let test_hands_guards () =
  let rng = Rng.create 15 in
  Alcotest.check_raises "label range" (Invalid_argument "Hand_shapes: label out of range")
    (fun () -> ignore (Hand_shapes.clean ~rng ~label:20 ~orientation:0.))

(* ---------------------------------------------------------------- Vectors *)

let test_vectors_shapes () =
  let rng = Rng.create 16 in
  let pts, labels = Vectors.gaussian_mixture ~rng ~num_clusters:4 ~dim:6 100 in
  Alcotest.(check int) "count" 100 (Array.length pts);
  Alcotest.(check int) "dim" 6 (Array.length pts.(0));
  Array.iter
    (fun l -> Alcotest.(check bool) "label range" true (l >= 0 && l < 4))
    labels;
  let cube = Vectors.uniform_cube ~rng ~dim:3 10 in
  Array.iter
    (Array.iter (fun x -> Alcotest.(check bool) "in cube" true (x >= 0. && x < 1.)))
    cube

let test_vectors_flip_bits () =
  let rng = Rng.create 17 in
  let v = Array.make 32 false in
  let flipped = Vectors.flip_bits ~rng ~flips:5 v in
  check_loose 1e-12 "exactly 5 flips" 5. (Dbh_metrics.Hamming.bools v flipped)

let test_vectors_histograms () =
  let rng = Rng.create 18 in
  let hs = Vectors.histograms ~rng ~bins:8 20 in
  Array.iter
    (fun h ->
      check_loose 1e-9 "normalized" 1. (Array.fold_left ( +. ) 0. h);
      Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.)) h)
    hs

(* -------------------------------------------------------------- Documents *)

let test_documents_shapes () =
  let rng = Rng.create 41 in
  let doc = Dbh_datasets.Documents.generate ~rng ~num_topics:8 3 in
  Alcotest.(check int) "label" 3 doc.Dbh_datasets.Documents.label;
  Alcotest.(check int) "distinct terms" 40
    (Array.length doc.Dbh_datasets.Documents.terms);
  let sorted = Array.copy doc.Dbh_datasets.Documents.terms in
  Array.sort compare sorted;
  for i = 0 to Array.length sorted - 2 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i + 1))
  done

let test_documents_class_structure () =
  let rng = Rng.create 42 in
  let set = Dbh_datasets.Documents.generate_set ~rng ~num_topics:8 120 in
  let labels = Array.map (fun d -> d.Dbh_datasets.Documents.label) set in
  let within, cross =
    class_separation Dbh_datasets.Documents.space set labels ~samples:500 (Rng.create 43)
  in
  Alcotest.(check bool) "topics separate under jaccard" true (within < 0.9 *. cross)

let test_documents_guards () =
  let rng = Rng.create 44 in
  Alcotest.check_raises "topic range"
    (Invalid_argument "Documents.generate: topic out of range")
    (fun () -> ignore (Dbh_datasets.Documents.generate ~rng ~num_topics:3 3))

(* ---------------------------------------------------------------- Strings *)

let test_strings_random () =
  let rng = Rng.create 19 in
  let s = Strings.random_string ~rng ~alphabet:"ab" 20 in
  Alcotest.(check int) "length" 20 (String.length s);
  String.iter (fun c -> Alcotest.(check bool) "alphabet" true (c = 'a' || c = 'b')) s

let test_strings_mutate_bounded () =
  let rng = Rng.create 20 in
  for _ = 1 to 30 do
    let s = Strings.random_string ~rng ~alphabet:"abcd" 15 in
    let m = Strings.mutate ~rng ~alphabet:"abcd" ~edits:3 s in
    Alcotest.(check bool) "edit distance bounded" true
      (Dbh_metrics.Edit_distance.levenshtein s m <= 3.)
  done

let test_strings_clusters () =
  let rng = Rng.create 21 in
  let members, labels =
    Strings.clusters ~rng ~alphabet:"abcdefgh" ~num_clusters:5 ~length:20 ~mutation_edits:2 60
  in
  Alcotest.(check int) "count" 60 (Array.length members);
  let space = Dbh_metrics.Edit_distance.space in
  let within, cross = class_separation space members labels ~samples:400 (Rng.create 22) in
  Alcotest.(check bool) "cluster structure" true (within < 0.6 *. cross)

(* -------------------------------------------------------------------- DNA *)

let test_dna_shapes () =
  let rng = Rng.create 51 in
  let set = Dbh_datasets.Dna.generate_set ~rng ~num_families:10 50 in
  Alcotest.(check int) "count" 50 (Array.length set);
  Array.iter
    (fun inst ->
      Alcotest.(check bool) "family range" true
        (inst.Dbh_datasets.Dna.label >= 0 && inst.Dbh_datasets.Dna.label < 10);
      String.iter
        (fun c ->
          Alcotest.(check bool) "alphabet" true (c = 'A' || c = 'C' || c = 'G' || c = 'T'))
        inst.Dbh_datasets.Dna.sequence;
      (* Indels change length by at most params.indels. *)
      let len = String.length inst.Dbh_datasets.Dna.sequence in
      Alcotest.(check bool) "length near ancestor" true (len >= 78 && len <= 82))
    set

let test_dna_family_structure () =
  let rng = Rng.create 52 in
  let set = Dbh_datasets.Dna.generate_set ~rng ~num_families:8 64 in
  let labels = Array.map (fun i -> i.Dbh_datasets.Dna.label) set in
  let within, cross =
    class_separation Dbh_datasets.Dna.global_space set labels ~samples:300 (Rng.create 53)
  in
  Alcotest.(check bool) "families separate under NW" true (within < 0.6 *. cross)

let test_dna_mutate_bounded () =
  let rng = Rng.create 54 in
  let s = String.concat "" (List.init 20 (fun _ -> "ACGT")) in
  let m = Dbh_datasets.Dna.mutate ~rng s in
  (* 6 substitutions + 2 indels: NW distance bounded by a small budget. *)
  Alcotest.(check bool) "close under alignment" true
    (Dbh_metrics.Alignment.global_distance s m <= 40.)

let () =
  Alcotest.run "dbh_datasets"
    [
      ( "templates",
        [
          Alcotest.test_case "all digits valid" `Quick test_templates_all_digits;
          Alcotest.test_case "digits distinct" `Quick test_templates_distinct;
        ] );
      ( "pen_digits",
        [
          Alcotest.test_case "shapes" `Quick test_pen_digits_shapes;
          Alcotest.test_case "balanced set" `Quick test_pen_digits_balanced_set;
          Alcotest.test_case "class structure" `Quick test_pen_digits_class_structure;
          Alcotest.test_case "determinism" `Quick test_pen_digits_determinism;
          Alcotest.test_case "custom params" `Quick test_pen_digits_custom_params;
        ] );
      ( "raster",
        [
          Alcotest.test_case "draw and ink" `Quick test_raster_draw_and_ink;
          Alcotest.test_case "out of bounds" `Quick test_raster_out_of_bounds;
          Alcotest.test_case "boundary" `Quick test_raster_boundary;
          Alcotest.test_case "ascii" `Quick test_raster_ascii;
          Alcotest.test_case "sample points" `Quick test_raster_sample_points;
        ] );
      ( "image_digits",
        [
          Alcotest.test_case "shapes" `Quick test_image_digits_shapes;
          Alcotest.test_case "render" `Quick test_image_digits_render;
          Alcotest.test_case "class structure" `Quick test_image_digits_class_structure;
        ] );
      ( "hand_shapes",
        [
          Alcotest.test_case "database layout" `Quick test_hands_database_layout;
          Alcotest.test_case "noisy queries" `Quick test_hands_queries_are_noisy;
          Alcotest.test_case "class structure" `Quick test_hands_class_structure;
          Alcotest.test_case "guards" `Quick test_hands_guards;
        ] );
      ( "vectors",
        [
          Alcotest.test_case "shapes" `Quick test_vectors_shapes;
          Alcotest.test_case "flip bits" `Quick test_vectors_flip_bits;
          Alcotest.test_case "histograms" `Quick test_vectors_histograms;
        ] );
      ( "documents",
        [
          Alcotest.test_case "shapes" `Quick test_documents_shapes;
          Alcotest.test_case "class structure" `Quick test_documents_class_structure;
          Alcotest.test_case "guards" `Quick test_documents_guards;
        ] );
      ( "strings",
        [
          Alcotest.test_case "random" `Quick test_strings_random;
          Alcotest.test_case "mutate bounded" `Quick test_strings_mutate_bounded;
          Alcotest.test_case "clusters" `Quick test_strings_clusters;
        ] );
      ( "dna",
        [
          Alcotest.test_case "shapes" `Quick test_dna_shapes;
          Alcotest.test_case "family structure" `Quick test_dna_family_structure;
          Alcotest.test_case "mutate bounded" `Quick test_dna_mutate_bounded;
        ] );
    ]
