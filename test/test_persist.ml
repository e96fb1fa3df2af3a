(* Chaos tests for the durability layer: every single-byte corruption of
   a snapshot must surface as [Binio.Corrupt], a WAL truncated at any
   offset must replay exactly its valid prefix, a kill at any point
   inside a checkpoint must leave the directory recoverable, and an
   index closed and reopened must answer queries bit-for-bit like one
   that never restarted — including under a domain pool
   (DBH_TEST_DOMAINS, default 2). *)

module Rng = Dbh_util.Rng
module Pool = Dbh_util.Pool
module Binio = Dbh_util.Binio
module Crc32 = Dbh_util.Crc32
module Envelope = Dbh_persist.Envelope
module Wal = Dbh_persist.Wal
module Layout = Dbh_persist.Layout
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Index = Dbh.Index
module Builder = Dbh.Builder
module Hierarchical = Dbh.Hierarchical
module Online = Dbh.Online
module Durable = Dbh.Online.Durable

let domains =
  match Sys.getenv_opt "DBH_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 1 -> d
      | _ -> invalid_arg "DBH_TEST_DOMAINS must be a positive integer")

let l2 = Minkowski.l2_space

let small_config =
  { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:6 ~dim:4 n in
  db

let encode (v : float array) =
  let buf = Buffer.create 64 in
  Binio.write_float_array buf v;
  Buffer.contents buf

let decode s =
  let r = Binio.reader s in
  let v = Binio.read_float_array r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in vector");
  v

(* ------------------------------------------------------- file helpers *)

let with_dir f = Temp_dir.with_dir "persist" f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let flip_byte data i =
  let b = Bytes.of_string data in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
  Bytes.to_string b

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt, got a value" what
  | exception Binio.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: expected Corrupt, got %s" what (Printexc.to_string e)

(* ------------------------------------------------------------- crc32 *)

let test_crc_known_vectors () =
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "fox" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog");
  Alcotest.(check int) "empty" 0 (Crc32.string "")

let test_crc_incremental_matches_whole () =
  let s = "the incremental interface must chain like the one-shot one" in
  for cut = 0 to String.length s do
    let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
    Alcotest.(check int)
      (Printf.sprintf "cut at %d" cut)
      (Crc32.string s)
      (Crc32.string ~crc:(Crc32.string a) b)
  done

let test_crc_detects_any_single_byte_flip () =
  let s = "every single corrupted byte must change the checksum" in
  let reference = Crc32.string s in
  for i = 0 to String.length s - 1 do
    if Crc32.string (flip_byte s i) = reference then
      Alcotest.failf "flip at %d not detected" i
  done

(* ---------------------------------------------------------- envelope *)

let sample_payload = String.init 100 (fun i -> Char.chr ((i * 7) land 0xFF))

let test_envelope_round_trip () =
  let image = Envelope.wrap ~kind:"test" ~version:3 sample_payload in
  let header, payload = Envelope.decode image in
  Alcotest.(check string) "payload" sample_payload payload;
  Alcotest.(check string) "kind" "test" header.Envelope.kind;
  Alcotest.(check int) "version" 3 header.Envelope.version

let test_envelope_every_byte_flip_detected () =
  let image = Envelope.wrap ~kind:"test" ~version:1 sample_payload in
  for i = 0 to String.length image - 1 do
    expect_corrupt
      (Printf.sprintf "flip at byte %d" i)
      (fun () -> Envelope.decode (flip_byte image i))
  done

let test_envelope_every_truncation_detected () =
  let image = Envelope.wrap ~kind:"test" ~version:1 sample_payload in
  for len = 0 to String.length image - 1 do
    expect_corrupt
      (Printf.sprintf "truncated to %d" len)
      (fun () -> Envelope.decode (String.sub image 0 len))
  done;
  expect_corrupt "trailing garbage" (fun () -> Envelope.decode (image ^ "x"))

let test_envelope_kind_and_version_checked () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "e.dbh" in
  Envelope.save ~path ~kind:"index" ~version:2 sample_payload;
  Alcotest.(check string) "same kind/version" sample_payload
    (Envelope.read_expect ~kind:"index" ~version:2 ~path);
  expect_corrupt "wrong kind" (fun () -> Envelope.read_expect ~kind:"online" ~version:2 ~path);
  expect_corrupt "wrong version" (fun () ->
      Envelope.read_expect ~kind:"index" ~version:1 ~path)

let test_write_atomic_replaces_and_leaves_no_temp () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "file.bin" in
  Envelope.write_atomic ~path "first";
  Envelope.write_atomic ~path "second";
  Alcotest.(check string) "replaced" "second" (read_file path);
  (* A stray temp file from an interrupted writer must not confuse
     anything: it is not the target and the next write still lands. *)
  write_file (Filename.concat dir "file.bin.stray.tmp") "junk";
  Envelope.write_atomic ~path "third";
  Alcotest.(check string) "replaced again" "third" (read_file path);
  let others =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> "file.bin" && f <> "file.bin.stray.tmp")
  in
  Alcotest.(check (list string)) "no temp residue" [] others

(* --------------------------------------------------------------- wal *)

let wal_payloads =
  [| "a"; String.make 40 'b'; ""; "payload with \000 bytes \255"; String.make 7 'z' |]

let write_wal path =
  let w = Wal.create ~fsync:false ~path () in
  Array.iter (fun p -> ignore (Wal.append w p)) wal_payloads;
  Wal.close w

let test_wal_round_trip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  write_wal path;
  let scan = Wal.scan ~path in
  Alcotest.(check bool) "not torn" false scan.Wal.torn;
  Alcotest.(check (array string)) "payloads" wal_payloads scan.Wal.records

let test_wal_truncation_at_every_offset () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  write_wal path;
  let full = read_file path in
  (* Offsets of record boundaries: cutting exactly there is a clean end,
     anywhere else is a torn tail losing only records at or after the cut. *)
  let boundaries =
    Array.to_list wal_payloads
    |> List.fold_left (fun acc p -> (List.hd acc + 24 + String.length p) :: acc) [ 0 ]
    |> List.rev
  in
  for cut = 0 to String.length full - 1 do
    let scan = Wal.scan_string (String.sub full 0 cut) in
    let complete = List.length (List.filter (fun b -> b <= cut) boundaries) - 1 in
    Alcotest.(check int) (Printf.sprintf "records at cut %d" cut) complete
      (Array.length scan.Wal.records);
    Alcotest.(check bool)
      (Printf.sprintf "torn at cut %d" cut)
      (not (List.mem cut boundaries))
      scan.Wal.torn
  done

let test_wal_every_byte_flip_detected () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  write_wal path;
  let full = read_file path in
  for i = 0 to String.length full - 1 do
    let scan = Wal.scan_string (flip_byte full i) in
    if (not scan.Wal.torn) || Array.length scan.Wal.records >= Array.length wal_payloads
    then Alcotest.failf "flip at byte %d survived the scan" i
  done

let test_wal_append_after_torn_tail () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  write_wal path;
  let full = read_file path in
  (* Tear the last record in half, then append through the normal path:
     the torn bytes must be truncated away, not buried. *)
  write_file path (String.sub full 0 (String.length full - 3));
  let w, scan = Wal.open_append ~fsync:false ~path () in
  Alcotest.(check bool) "was torn" true scan.Wal.torn;
  Alcotest.(check int) "prefix survived" (Array.length wal_payloads - 1)
    (Array.length scan.Wal.records);
  let seq = Wal.append w "appended" in
  Wal.close w;
  Alcotest.(check int) "sequence continues" (Array.length wal_payloads) seq;
  let rescan = Wal.scan ~path in
  Alcotest.(check bool) "clean after append" false rescan.Wal.torn;
  Alcotest.(check string) "appended record last" "appended"
    rescan.Wal.records.(Array.length rescan.Wal.records - 1)

(* ---------------------------------------------- index / hierarchical *)

let build_index seed n =
  let rng = Rng.create seed in
  let db = test_db (seed + 1) n in
  let prepared = Builder.prepare ~rng ~space:l2 ~config:small_config db in
  match Builder.single ~rng ~prepared ~db ~target_accuracy:0.85 ~config:small_config () with
  | Some (index, _) -> (index, db)
  | None -> Alcotest.fail "single-level build unreachable for test config"

let test_index_save_load_round_trip () =
  let index, db = build_index 11 60 in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "index.dbh" in
  Index.save ~encode ~path index;
  let loaded = Index.load ~decode ~space:l2 ~path in
  let queries = test_db 99 20 in
  Array.iter
    (fun q ->
      let a = Index.search index q and b = Index.search loaded q in
      if a <> b then Alcotest.fail "loaded index answers differently")
    queries;
  ignore db

(* Save [index] with its first key count set to [max_int / k + 1], the
   smallest count whose [n * k] bits wrap past [max_int], re-wrapped so
   every checksum holds: loading must fail the structural decode before
   the count sizes an array. *)
let expect_key_count_overflow_corrupt ~path index =
  Index.save ~encode ~path index;
  let _, payload = Envelope.decode (read_file path) in
  let r = Binio.reader payload in
  ignore (Binio.read_string r);
  ignore (Dbh.Hash_family.read ~decode ~space:l2 r);
  ignore (Index.read_store ~decode r);
  let k = Binio.read_int r in
  let l = Binio.read_int r in
  for _ = 1 to l do
    ignore (Binio.read_int_array r)
  done;
  ignore (Binio.read_int_array r);
  let b = Bytes.of_string payload in
  Bytes.set_int64_le b (Binio.pos r) (Int64.of_int ((max_int / k) + 1));
  write_file path (Envelope.wrap ~kind:"index" ~version:1 (Bytes.to_string b));
  expect_corrupt
    (Printf.sprintf "key count max_int / %d + 1" k)
    (fun () -> Index.load ~decode ~space:l2 ~path)

let test_index_every_byte_flip_detected () =
  let index, _ = build_index 12 40 in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "index.dbh" in
  Index.save ~encode ~path index;
  let full = read_file path in
  for i = 0 to String.length full - 1 do
    write_file path (flip_byte full i);
    expect_corrupt
      (Printf.sprintf "flip at byte %d" i)
      (fun () -> Index.load ~decode ~space:l2 ~path)
  done;
  (* k = 2 here, and k = 17 for the 60-vector index of the round trip. *)
  expect_key_count_overflow_corrupt ~path index;
  expect_key_count_overflow_corrupt ~path (fst (build_index 11 60))

let test_index_decode_failure_is_corrupt () =
  let index, _ = build_index 13 40 in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "index.dbh" in
  Index.save ~encode ~path index;
  let failing_decode (_ : string) = failwith "user codec exploded" in
  expect_corrupt "raising decode" (fun () ->
      Index.load ~decode:failing_decode ~space:l2 ~path)

let build_hierarchical seed n =
  let rng = Rng.create seed in
  let db = test_db (seed + 1) n in
  let prepared = Builder.prepare ~rng ~space:l2 ~config:small_config db in
  Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config:small_config ()

let test_hierarchical_save_load_round_trip () =
  let h = build_hierarchical 21 60 in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "h.dbh" in
  Hierarchical.save ~encode ~path h;
  let loaded = Hierarchical.load ~decode ~space:l2 ~path in
  let queries = test_db 98 20 in
  Array.iter
    (fun q ->
      let a = Hierarchical.search h q and b = Hierarchical.search loaded q in
      if a <> b then Alcotest.fail "loaded hierarchical answers differently")
    queries

let test_hierarchical_corruption_detected () =
  let h = build_hierarchical 22 40 in
  with_dir @@ fun dir ->
  let path = Filename.concat dir "h.dbh" in
  Hierarchical.save ~encode ~path h;
  let full = read_file path in
  (* Sampled offsets: the per-byte guarantee is carried by the envelope
     CRC, which the index-file test exercises exhaustively on a real
     file; this confirms the hierarchical path goes through the same
     verified decode. *)
  let stride = max 7 (String.length full / 200) in
  let i = ref 0 in
  while !i < String.length full do
    write_file path (flip_byte full !i);
    expect_corrupt
      (Printf.sprintf "flip at byte %d" !i)
      (fun () -> Hierarchical.load ~decode ~space:l2 ~path);
    i := !i + stride
  done;
  (* Checksum-valid payloads whose level count is implausible must fail
     the structural decode before the count sizes an allocation. *)
  let _, payload = Envelope.decode full in
  let r = Binio.reader payload in
  ignore (Binio.read_string r);
  ignore (Dbh.Hash_family.read ~decode ~space:l2 r);
  ignore (Index.read_store ~decode r);
  let at = Binio.pos r in
  List.iter
    (fun bits ->
      let b = Bytes.of_string payload in
      Bytes.set_int64_le b at (Int64.shift_left 1L bits);
      write_file path (Envelope.wrap ~kind:"hierarchical" ~version:1 (Bytes.to_string b));
      expect_corrupt
        (Printf.sprintf "level count 2^%d" bits)
        (fun () -> Hierarchical.load ~decode ~space:l2 ~path))
    [ 40; 60 ]

(* ------------------------------------------------------------ durable *)

type op = Ins of float array | Del of int

let apply_online o = function
  | Ins v -> ignore (Online.insert o v)
  | Del h -> Online.delete o h

let apply_durable d = function
  | Ins v -> ignore (Durable.insert d v)
  | Del h -> Durable.delete d h

(* An op stream over fresh vectors, with enough inserts to cross the
   1.5× rebuild threshold at least once. *)
let op_stream seed n =
  let extra = test_db (seed + 50) n in
  List.concat_map
    (fun i ->
      if i mod 4 = 3 then [ Ins extra.(i); Del (i / 2) ] else [ Ins extra.(i) ])
    (List.init n Fun.id)

let seed_db = test_db 31 50

let make_twin () =
  Online.create ~rng:(Rng.create 42) ~space:l2 ~config:small_config ~rebuild_factor:1.5
    ~target_accuracy:0.9 seed_db

let make_durable ?pool dir =
  Durable.open_or_create ?pool ~rng:(Rng.create 42) ~space:l2 ~config:small_config
    ~rebuild_factor:1.5 ~target_accuracy:0.9 ~encode ~decode ~dir ~data:seed_db ()

let reopen ?pool dir =
  Durable.open_or_create ?pool ~rng:(Rng.create 42) ~space:l2 ~config:small_config
    ~rebuild_factor:1.5 ~target_accuracy:0.9 ~encode ~decode ~dir ()

let queries = test_db 77 25

let check_equiv msg twin dur =
  Alcotest.(check int) (msg ^ ": size") (Online.size twin) (Durable.size dur);
  Alcotest.(check bool)
    (msg ^ ": alive handles")
    true
    (Online.alive_handles twin = Online.alive_handles (Durable.online dur));
  Alcotest.(check int)
    (msg ^ ": rebuilds")
    (Online.rebuilds twin)
    (Online.rebuilds (Durable.online dur));
  Array.iteri
    (fun i q ->
      let a = Online.search twin q and b = Durable.search dur q in
      if a <> b then Alcotest.failf "%s: query %d differs after restart" msg i)
    queries

let test_durable_fresh_then_reopen_equivalent () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, rec1 = make_durable dir in
  Alcotest.(check bool) "fresh" true (rec1.Durable.source = `Fresh);
  let ops = op_stream 61 40 in
  List.iter (apply_online twin) ops;
  List.iter (apply_durable d) ops;
  check_equiv "before close" twin d;
  Durable.close d;
  (* Close without checkpoint: reopening must replay every op. *)
  let d2, rec2 = reopen dir in
  Alcotest.(check int) "all ops replayed" (List.length ops) rec2.Durable.replayed_ops;
  Alcotest.(check bool) "no torn tail" false rec2.Durable.torn_tail;
  (match rec2.Durable.source with
  | `Snapshot _ -> ()
  | _ -> Alcotest.fail "expected recovery from a snapshot");
  check_equiv "after replay" twin d2;
  (* Keep operating after the restart: the generator state must have
     survived, so further rebuilds stay in lockstep. *)
  let more = op_stream 62 30 in
  List.iter (apply_online twin) more;
  List.iter (apply_durable d2) more;
  check_equiv "after post-restart ops" twin d2;
  Durable.close d2

let test_durable_rejects_nan_insert () =
  (* A rejected object never reaches the log, so replay never meets
     it. *)
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  Alcotest.check_raises "NaN coordinate"
    (Invalid_argument "Hierarchical.insert: distance function returned NaN or a negative value")
    (fun () -> ignore (Durable.insert d [| nan; 0.; 0.; 0. |]));
  Alcotest.(check int) "nothing journaled" 0 (Durable.wal_ops d);
  let h = Durable.insert d (test_db 65 1).(0) in
  Durable.close d;
  let d2, rec2 = reopen dir in
  Alcotest.(check int) "only the good insert replayed" 1 rec2.Durable.replayed_ops;
  Alcotest.(check int) "size" 51 (Durable.size d2);
  Alcotest.(check int) "its handle" 50 h;
  Durable.close d2

let test_durable_checkpoint_then_reopen () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let ops1 = op_stream 63 25 and ops2 = op_stream 64 20 in
  List.iter (apply_online twin) ops1;
  List.iter (apply_durable d) ops1;
  Durable.checkpoint d;
  Alcotest.(check int) "wal drained" 0 (Durable.wal_ops d);
  Alcotest.(check int) "generation advanced" 2 (Durable.generation d);
  List.iter (apply_online twin) ops2;
  List.iter (apply_durable d) ops2;
  Durable.close d;
  let d2, rec2 = reopen dir in
  Alcotest.(check int) "only post-checkpoint ops replayed" (List.length ops2)
    rec2.Durable.replayed_ops;
  check_equiv "after checkpoint+replay" twin d2;
  Durable.close d2

let test_durable_checkpoint_prunes_generations () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  List.iter (apply_durable d) (op_stream 65 10);
  Durable.checkpoint d;
  List.iter (apply_durable d) (op_stream 66 10);
  Durable.checkpoint d;
  Durable.close d;
  Alcotest.(check (list int)) "two snapshot generations" [ 2; 3 ]
    (Layout.snapshot_generations ~dir);
  Alcotest.(check (list int)) "two wal generations" [ 2; 3 ] (Layout.wal_generations ~dir)

(* An online snapshot with its registry length (the word after the four
   rng words) set to [n], re-wrapped so every checksum holds. *)
let with_registry_len n data =
  let header, payload = Envelope.decode data in
  let b = Bytes.of_string payload in
  Bytes.set_int64_le b 32 (Int64.of_int n);
  Envelope.wrap ~kind:header.Envelope.kind ~version:header.Envelope.version (Bytes.to_string b)

(* A snapshot whose envelope kind length (bytes 16-23, after the
   length-prefixed magic) reads [max_int]. *)
let with_kind_len_max data =
  let b = Bytes.of_string data in
  Bytes.set_int64_le b 16 (Int64.of_int max_int);
  Bytes.to_string b

let test_durable_corrupt_latest_falls_back () =
  (* A flipped byte fails a checksum; a checksum-valid registry length
     of 2^40 fails the structural decode; a kind length of [max_int]
     fails the envelope's bounds check before any checksum is read. *)
  List.iter
    (fun (what, corrupt) ->
      with_dir @@ fun dir ->
      let twin = make_twin () in
      let d, _ = make_durable dir in
      let ops1 = op_stream 67 25 and ops2 = op_stream 68 15 in
      List.iter (apply_online twin) ops1;
      List.iter (apply_durable d) ops1;
      Durable.checkpoint d;
      List.iter (apply_online twin) ops2;
      List.iter (apply_durable d) ops2;
      Durable.close d;
      (* Corrupt the newest snapshot.  Recovery must fall back to the
         previous generation and still reach the present through the log
         chain: the old generation's complete log plus the current one. *)
      let latest = Layout.snapshot_path ~dir 2 in
      write_file latest (corrupt (read_file latest));
      let d2, rec2 = reopen dir in
      (match rec2.Durable.source with
      | `Snapshot 1 -> ()
      | _ -> Alcotest.failf "%s: expected fallback to generation 1" what);
      Alcotest.(check bool)
        (what ^ ": corruption reported")
        true
        (List.mem_assoc 2 rec2.Durable.skipped);
      Alcotest.(check int)
        (what ^ ": whole history replayed")
        (List.length ops1 + List.length ops2)
        rec2.Durable.replayed_ops;
      check_equiv (what ^ ": after fallback") twin d2;
      Durable.close d2)
    [ ("flipped byte", fun data -> flip_byte data 100);
      ("registry length 2^40", with_registry_len (1 lsl 40));
      ("kind length max_int", with_kind_len_max) ]

let test_durable_torn_wal_loses_only_the_tail () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let ops = op_stream 69 30 in
  List.iter (apply_durable d) ops;
  Durable.close d;
  let wal = Layout.wal_path ~dir 1 in
  let full = read_file wal in
  write_file wal (String.sub full 0 (String.length full - 5));
  let d2, rec2 = reopen dir in
  Alcotest.(check bool) "torn tail reported" true rec2.Durable.torn_tail;
  Alcotest.(check int) "one op lost" (List.length ops - 1) rec2.Durable.replayed_ops;
  (* The twin applies everything but the final op — the only data a torn
     tail may cost. *)
  List.iter (apply_online twin) (List.filteri (fun i _ -> i < List.length ops - 1) ops);
  check_equiv "after torn replay" twin d2;
  Durable.close d2

let test_durable_kill_points_recover () =
  List.iter
    (fun kill ->
      with_dir @@ fun dir ->
      let twin = make_twin () in
      let d, _ = make_durable dir in
      let ops = op_stream 70 20 in
      List.iter (apply_online twin) ops;
      List.iter (apply_durable d) ops;
      (match Durable.checkpoint ~kill d with
      | () -> Alcotest.fail "kill point did not fire"
      | exception Durable.Killed _ -> ());
      Durable.close d;
      let d2, _ = reopen dir in
      check_equiv "after killed checkpoint" twin d2;
      let more = op_stream 71 15 in
      List.iter (apply_online twin) more;
      List.iter (apply_durable d2) more;
      check_equiv "after killed checkpoint + ops" twin d2;
      Durable.close d2)
    [ Durable.After_snapshot; Durable.After_wal_switch ]

let test_durable_snapshot_every_byte_flip_detected () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  List.iter (apply_durable d) (op_stream 72 8);
  Durable.checkpoint d;
  Durable.close d;
  let path = Layout.snapshot_path ~dir 2 in
  let full = read_file path in
  (* Sampled offsets (see the hierarchical corruption test): the
     envelope CRC carries the exhaustive per-byte guarantee. *)
  let stride = max 7 (String.length full / 200) in
  let i = ref 0 in
  while !i < String.length full do
    write_file path (flip_byte full !i);
    expect_corrupt
      (Printf.sprintf "flip at byte %d" !i)
      (fun () -> Durable.verify_snapshot ~path);
    i := !i + stride
  done;
  write_file path full;
  let total, alive = Durable.verify_snapshot ~path in
  Alcotest.(check bool) "verify sees handles" true (total >= alive && alive > 0)

let test_durable_all_corrupt_rebuilds_or_refuses () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  List.iter (apply_durable d) (op_stream 73 10);
  Durable.checkpoint d;
  Durable.close d;
  List.iter
    (fun g ->
      let p = Layout.snapshot_path ~dir g in
      write_file p (flip_byte (read_file p) 50))
    (Layout.snapshot_generations ~dir);
  (* Without raw data there is nothing trustworthy to serve: refuse. *)
  expect_corrupt "no data" (fun () -> reopen dir);
  (* With raw data, degrade to a rebuild — never serve a corrupt index. *)
  let d2, rec2 = make_durable dir in
  Alcotest.(check bool) "rebuilt" true (rec2.Durable.source = `Rebuilt);
  Alcotest.(check bool) "skipped snapshots reported" true (rec2.Durable.skipped <> []);
  Alcotest.(check int) "rebuilt from data" (Array.length seed_db) (Durable.size d2);
  Durable.close d2

let test_durable_empty_dir_without_data_refused () =
  with_dir @@ fun dir ->
  match reopen dir with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A loaded generation builds nothing until its next rebuild, so a bad
   slack must be refused at open, not when a breaker trips. *)
let test_durable_bad_slack_refused () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  Durable.close d;
  Alcotest.check_raises "negative slack"
    (Invalid_argument "Params: slack must be finite and non-negative") (fun () ->
      ignore
        (Durable.open_or_create ~rng:(Rng.create 42) ~space:l2
           ~config:{ small_config with slack = -0.5 } ~target_accuracy:0.9 ~encode ~decode ~dir
           ()))

let test_durable_parallel_pool_equivalent () =
  Pool.with_pool ~domains (fun pool ->
      with_dir @@ fun dir ->
      let twin = make_twin () in
      let d, _ = make_durable ~pool dir in
      let ops = op_stream 74 30 in
      List.iter (apply_online twin) ops;
      List.iter (apply_durable d) ops;
      Durable.checkpoint d;
      Durable.close d;
      let d2, _ = reopen ~pool dir in
      (* The pooled restart must match the sequential never-restarted
         twin: parallel rebuilds are bit-identical by construction, and
         recovery must preserve that. *)
      check_equiv "pooled restart vs sequential twin" twin d2;
      let batch = Durable.search_batch d2 queries in
      Array.iteri
        (fun i (r : _ Online.result) ->
          if r <> Online.search twin queries.(i) then
            Alcotest.failf "pooled batch query %d differs" i)
        batch;
      Durable.close d2)

let test_durable_shrink_reopens () =
  (* Deleting down to 2 objects leaves too few sample queries for the
     cascade's 5 levels, so the rebuild the last delete triggers is
     rejected; the delete stands.  Every delete is journaled first, so
     replay meets the same rejected rebuild, and the directory must
     reopen to a twin of a sequential index that never restarted. *)
  let config = { small_config with num_pivots = 8; num_sample_queries = 20 } in
  let db = test_db 33 40 in
  let twin = Online.create ~rng:(Rng.create 43) ~space:l2 ~config ~target_accuracy:0.9 db in
  Pool.with_pool ~domains (fun pool ->
      with_dir @@ fun dir ->
      let open_dir ?data () =
        Durable.open_or_create ~pool ~rng:(Rng.create 43) ~space:l2 ~config ~target_accuracy:0.9
          ~encode ~decode ~dir ?data ()
      in
      let d, _ = open_dir ~data:db () in
      for h = 0 to 37 do
        Online.delete twin h;
        Durable.delete d h
      done;
      check_equiv "before close" twin d;
      Durable.close d;
      let d2, r = open_dir () in
      Alcotest.(check bool) "from snapshot 1" true (r.Durable.source = `Snapshot 1);
      Alcotest.(check int) "every delete replayed" 38 r.Durable.replayed_ops;
      Alcotest.(check (array int64))
        "rng state" (Online.rng_state twin)
        (Online.rng_state (Durable.online d2));
      check_equiv "after replay" twin d2;
      Durable.close d2)

let () =
  Alcotest.run "dbh-persist"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "incremental = whole" `Quick test_crc_incremental_matches_whole;
          Alcotest.test_case "single byte flips detected" `Quick
            test_crc_detects_any_single_byte_flip;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "round trip" `Quick test_envelope_round_trip;
          Alcotest.test_case "every byte flip detected" `Quick
            test_envelope_every_byte_flip_detected;
          Alcotest.test_case "every truncation detected" `Quick
            test_envelope_every_truncation_detected;
          Alcotest.test_case "kind and version checked" `Quick
            test_envelope_kind_and_version_checked;
          Alcotest.test_case "atomic write replaces cleanly" `Quick
            test_write_atomic_replaces_and_leaves_no_temp;
        ] );
      ( "wal",
        [
          Alcotest.test_case "round trip" `Quick test_wal_round_trip;
          Alcotest.test_case "truncation at every offset" `Quick
            test_wal_truncation_at_every_offset;
          Alcotest.test_case "every byte flip detected" `Quick
            test_wal_every_byte_flip_detected;
          Alcotest.test_case "append after torn tail" `Quick test_wal_append_after_torn_tail;
        ] );
      ( "index-files",
        [
          Alcotest.test_case "index round trip" `Quick test_index_save_load_round_trip;
          Alcotest.test_case "index byte flips detected" `Slow
            test_index_every_byte_flip_detected;
          Alcotest.test_case "decode failure is Corrupt" `Quick
            test_index_decode_failure_is_corrupt;
          Alcotest.test_case "hierarchical round trip" `Quick
            test_hierarchical_save_load_round_trip;
          Alcotest.test_case "hierarchical corruption detected" `Slow
            test_hierarchical_corruption_detected;
        ] );
      ( "durable",
        [
          Alcotest.test_case "close/reopen equals never-restarted" `Quick
            test_durable_fresh_then_reopen_equivalent;
          Alcotest.test_case "checkpoint then reopen" `Quick test_durable_checkpoint_then_reopen;
          Alcotest.test_case "NaN insert never journaled" `Quick test_durable_rejects_nan_insert;
          Alcotest.test_case "checkpoint prunes generations" `Quick
            test_durable_checkpoint_prunes_generations;
          Alcotest.test_case "corrupt latest falls back a generation" `Quick
            test_durable_corrupt_latest_falls_back;
          Alcotest.test_case "torn wal loses only the tail" `Quick
            test_durable_torn_wal_loses_only_the_tail;
          Alcotest.test_case "kill points recover" `Quick test_durable_kill_points_recover;
          Alcotest.test_case "snapshot byte flips detected" `Slow
            test_durable_snapshot_every_byte_flip_detected;
          Alcotest.test_case "all corrupt: rebuild or refuse" `Quick
            test_durable_all_corrupt_rebuilds_or_refuses;
          Alcotest.test_case "empty dir without data refused" `Quick
            test_durable_empty_dir_without_data_refused;
          Alcotest.test_case "bad slack refused at open" `Quick test_durable_bad_slack_refused;
          Alcotest.test_case "pool restart equals sequential twin" `Quick
            test_durable_parallel_pool_equivalent;
          Alcotest.test_case "shrink reopens" `Quick test_durable_shrink_reopens;
        ] );
    ]
