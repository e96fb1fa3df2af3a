(* Replication and failover: WAL-shipping read replicas.

   Methodology follows test_persist: a volatile [Online.t] twin is fed
   the same logical ops as the durable leader, and a caught-up replica
   must be a bit-identical twin — same size, same alive handles, same
   rng state, same answer to every probe query — across torn tails,
   leader kills at every WAL byte offset, checkpoint kill points,
   generation rollovers, shipping, and promotion.

   Parallel sections honor DBH_TEST_DOMAINS (default 2). *)

module Rng = Dbh_util.Rng
module Binio = Dbh_util.Binio
module Retry = Dbh_util.Retry
module Wal = Dbh_persist.Wal
module Layout = Dbh_persist.Layout
module Minkowski = Dbh_metrics.Minkowski
module Builder = Dbh.Builder
module Online = Dbh.Online
module Durable = Dbh.Online.Durable
module Replica = Dbh_replica.Replica
module Metrics = Dbh_obs.Metrics
module Registry = Dbh_obs.Registry

let domains =
  match Sys.getenv_opt "DBH_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
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

let with_dir f = Temp_dir.with_dir "replica" f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ------------------------------------------------------------- leader *)

type op = Ins of float array | Del of int

let apply_online o = function
  | Ins v -> ignore (Online.insert o v)
  | Del h -> Online.delete o h

let apply_durable d = function
  | Ins v -> ignore (Durable.insert d v)
  | Del h -> Durable.delete d h

(* One WAL record per op, in order — the chaos harness relies on the
   bijection between op-stream prefixes and record-count prefixes. *)
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

let make_durable dir =
  Durable.open_or_create ~rng:(Rng.create 42) ~space:l2 ~config:small_config
    ~rebuild_factor:1.5 ~target_accuracy:0.9 ~encode ~decode ~dir ~data:seed_db ()

let open_replica dir =
  Replica.open_ ~config:small_config ~rebuild_factor:1.5
    ~retry:(Retry.make ~initial:0.001 ~max_delay:0.01 ())
    ~space:l2 ~target_accuracy:0.9 ~decode ~dir ()

let queries = test_db 77 25

(* Bit-identity: the whole point of the exercise. *)
let check_twin msg (twin : _ Online.t) (r : _ Replica.t) =
  Alcotest.(check int) (msg ^ ": size") (Online.size twin) (Replica.size r);
  Alcotest.(check bool)
    (msg ^ ": alive handles")
    true
    (Online.alive_handles twin = Online.alive_handles (Replica.online r));
  Alcotest.(check bool)
    (msg ^ ": rng state")
    true
    (Online.rng_state twin = Replica.rng_state r);
  Array.iteri
    (fun i q ->
      let a = Online.search twin q and b = Replica.search r q in
      if a <> b then Alcotest.failf "%s: query %d diverges from the twin" msg i)
    queries

(* --------------------------------------------------------- retry unit *)

let test_retry_deterministic_geometric () =
  let p = Retry.make ~initial:0.1 ~multiplier:2.0 ~max_delay:1.0 ~jitter:0. () in
  let delays = List.map (fun a -> Retry.backoff p ~attempt:a) [ 1; 2; 3; 4; 5; 6 ] in
  List.iter2
    (fun got want ->
      if Float.abs (got -. want) > 1e-9 then Alcotest.failf "backoff %f <> %f" got want)
    delays
    [ 0.1; 0.2; 0.4; 0.8; 1.0; 1.0 ]

let test_retry_jitter_bounded () =
  let p = Retry.make ~initial:0.1 ~multiplier:2.0 ~max_delay:1.0 ~jitter:0.25 () in
  let rng = Rng.create 7 in
  for attempt = 1 to 20 do
    let base = Retry.backoff p ~attempt in
    for _ = 1 to 50 do
      let d = Retry.backoff ~rng p ~attempt in
      if d < base *. 0.75 -. 1e-9 || d > base *. 1.25 +. 1e-9 then
        Alcotest.failf "jittered %f outside 25%% of %f" d base
    done
  done

let test_retry_rejects_bad_policies () =
  let bad f = match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () -> Retry.make ~initial:0. ());
  bad (fun () -> Retry.make ~multiplier:0.5 ());
  bad (fun () -> Retry.make ~initial:2.0 ~max_delay:1.0 ());
  bad (fun () -> Retry.make ~jitter:1.0 ())

let test_retry_backoff_within_caps_and_stops () =
  let p = Retry.make ~initial:0.1 ~multiplier:2.0 ~max_delay:1.0 ~jitter:0. () in
  (match Retry.backoff_within ~deadline:10. ~elapsed:0. p ~attempt:3 with
  | Some d -> Alcotest.(check (float 1e-9)) "uncapped = backoff" 0.4 d
  | None -> Alcotest.fail "expected Some inside the budget");
  (match Retry.backoff_within ~deadline:1.0 ~elapsed:0.85 p ~attempt:3 with
  | Some d -> Alcotest.(check (float 1e-9)) "clamped to remaining" 0.15 d
  | None -> Alcotest.fail "expected Some while budget remains");
  (match Retry.backoff_within ~deadline:1.0 ~elapsed:1.0 p ~attempt:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None at the deadline");
  (match Retry.backoff_within ~deadline:1.0 ~elapsed:2.5 p ~attempt:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None past the deadline");
  let bad f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () -> Retry.backoff_within ~deadline:0. ~elapsed:0. p ~attempt:1);
  bad (fun () -> Retry.backoff_within ~deadline:1. ~elapsed:(-0.1) p ~attempt:1);
  bad (fun () -> Retry.backoff_within ~deadline:1. ~elapsed:0. p ~attempt:0)

(* The deadline cap must not change how jitter is drawn: ladders that
   stay inside the budget are bit-identical to the uncapped ones, and
   even a capped-out call consumes the rng exactly once. *)
let test_retry_backoff_within_preserves_jitter_stream () =
  let p = Retry.make ~initial:0.1 ~multiplier:2.0 ~max_delay:1.0 ~jitter:0.25 () in
  let r1 = Rng.create 11 and r2 = Rng.create 11 in
  for attempt = 1 to 12 do
    let plain = Retry.backoff ~rng:r1 p ~attempt in
    match Retry.backoff_within ~rng:r2 ~deadline:1e6 ~elapsed:0. p ~attempt with
    | Some capped ->
        if plain <> capped then
          Alcotest.failf "attempt %d: %.17g <> %.17g" attempt plain capped
    | None -> Alcotest.fail "huge budget must not exhaust"
  done;
  let r3 = Rng.create 12 and r4 = Rng.create 12 in
  ignore (Retry.backoff ~rng:r3 p ~attempt:1);
  (match Retry.backoff_within ~rng:r4 ~deadline:1. ~elapsed:5. p ~attempt:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None");
  Alcotest.(check bool) "rng advanced identically" true
    (Rng.int r3 1_000_000 = Rng.int r4 1_000_000)

(* ------------------------------------------------- read-only tailing *)

let wal_payloads = [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ]

let write_wal path =
  let w = Wal.create ~fsync:false ~path () in
  List.iter (fun p -> ignore (Wal.append w p)) wal_payloads;
  Wal.close w

let test_prefix_resumable_cursor () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  write_wal path;
  let p1 = Wal.read_valid_prefix ~path () in
  Alcotest.(check int) "all records" (List.length wal_payloads)
    (Array.length p1.Wal.payloads);
  Alcotest.(check bool) "intact" false p1.Wal.prefix_torn;
  (* Re-read from the cursor: nothing new. *)
  let p2 = Wal.read_valid_prefix ~from:(p1.Wal.next_offset, p1.Wal.next_seq) ~path () in
  Alcotest.(check int) "drained" 0 (Array.length p2.Wal.payloads);
  (* Append more and resume mid-stream: only the new records surface,
     with sequence continuity enforced. *)
  let w, _ = Wal.open_append ~fsync:false ~path () in
  ignore (Wal.append w "foxtrot");
  Wal.close w;
  let p3 = Wal.read_valid_prefix ~from:(p1.Wal.next_offset, p1.Wal.next_seq) ~path () in
  Alcotest.(check bool) "resumed intact" false p3.Wal.prefix_torn;
  Alcotest.(check (array string)) "new records only" [| "foxtrot" |] p3.Wal.payloads

let test_prefix_never_truncates () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  write_wal path;
  let full = read_file path in
  write_file path (full ^ "garbage tail");
  let before = (Unix.stat path).Unix.st_size in
  let p = Wal.read_valid_prefix ~path () in
  Alcotest.(check bool) "torn reported" true p.Wal.prefix_torn;
  Alcotest.(check int) "valid prefix readable" (List.length wal_payloads)
    (Array.length p.Wal.payloads);
  Alcotest.(check int) "file untouched" before (Unix.stat path).Unix.st_size;
  (* Contrast with the writer-side open, which does truncate. *)
  let w, _ = Wal.open_append ~fsync:false ~path () in
  Wal.close w;
  Alcotest.(check int) "writer truncated" (String.length full)
    (Unix.stat path).Unix.st_size

let test_prefix_detects_shrink () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  write_wal path;
  let full = read_file path in
  write_file path (String.sub full 0 30);
  let p = Wal.read_valid_prefix ~from:(String.length full, 6) ~path () in
  Alcotest.(check bool) "shrink is torn" true p.Wal.prefix_torn;
  Alcotest.(check int) "nothing applied" 0 (Array.length p.Wal.payloads)

(* ------------------------------------------------- layout properties *)

let stray_name_gen =
  QCheck.Gen.(
    let fragment =
      string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '9'; '-'; '.'; '_'; 'X' ]) (1 -- 12)
    in
    oneof
      [
        fragment;
        map (fun s -> "snapshot-" ^ s) fragment;
        map (fun s -> "wal-" ^ s) fragment;
        map (fun s -> "snapshot-" ^ s ^ ".dbh") fragment;
        map (fun s -> "wal-" ^ s ^ ".log") fragment;
        map (fun s -> s ^ ".dbh") fragment;
        return "snapshot-.dbh";
        return "wal-.log";
        return "snapshot-000001.dbh.tmp";
        return "wal-0x0001.log";
        return "snapshot--00001.dbh";
      ])

(* A name the layout would legitimately claim: exact prefix+suffix with
   an all-digit positive generation. *)
let is_valid_layout_name name ~prefix ~suffix =
  String.length name > String.length prefix + String.length suffix
  && String.sub name 0 (String.length prefix) = prefix
  && String.sub name (String.length name - String.length suffix) (String.length suffix)
     = suffix
  &&
  let mid =
    String.sub name (String.length prefix)
      (String.length name - String.length prefix - String.length suffix)
  in
  String.length mid > 0
  && String.for_all (fun c -> c >= '0' && c <= '9') mid
  && match int_of_string_opt mid with Some g -> g > 0 | None -> false

let arb_strays =
  QCheck.make
    ~print:(fun l -> String.concat ", " l)
    QCheck.Gen.(list_size (1 -- 8) stray_name_gen)

let test_layout_strays_never_discovered =
  QCheck.Test.make ~name:"stray files never enter generation discovery" ~count:100
    arb_strays (fun strays ->
      let strays =
        List.filter
          (fun n ->
            n <> "." && n <> ".."
            && (not (is_valid_layout_name n ~prefix:"snapshot-" ~suffix:".dbh"))
            && not (is_valid_layout_name n ~prefix:"wal-" ~suffix:".log"))
          strays
      in
      with_dir @@ fun dir ->
      write_file (Layout.snapshot_path ~dir 3) "snap";
      write_file (Layout.wal_path ~dir 3) "wal";
      List.iter (fun n -> write_file (Filename.concat dir n) "stray") strays;
      Layout.snapshot_generations ~dir = [ 3 ] && Layout.wal_generations ~dir = [ 3 ])

let test_layout_checkpoint_gc_spares_strays () =
  with_dir @@ fun dir ->
  let strays = [ "snapshot-.dbh"; "wal-99x.log"; "snapshot-000002.dbh.tmp"; "notes.txt" ] in
  List.iter (fun n -> write_file (Filename.concat dir n) "keep me") strays;
  let d, _ = make_durable dir in
  List.iter (apply_durable d) (op_stream 80 6);
  Durable.checkpoint d;
  List.iter (apply_durable d) (op_stream 81 6);
  Durable.checkpoint d;
  Durable.checkpoint d;
  Durable.close d;
  List.iter
    (fun n ->
      let p = Filename.concat dir n in
      Alcotest.(check bool) (n ^ " survives GC") true (Sys.file_exists p);
      Alcotest.(check string) (n ^ " content intact") "keep me" (read_file p))
    strays;
  (* And discovery still sees only the real generations. *)
  Alcotest.(check bool)
    "generations are numeric" true
    (List.for_all (fun g -> g >= 1) (Layout.snapshot_generations ~dir))

(* ------------------------------------------------------------ replica *)

let leader_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n ->
         let st = Unix.stat (Filename.concat dir n) in
         (n, st.Unix.st_size, st.Unix.st_mtime))

let test_catch_up_is_twin () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let ops = op_stream 90 30 in
  List.iter (apply_online twin) ops;
  List.iter (apply_durable d) ops;
  Durable.close d;
  let r = open_replica dir in
  Alcotest.(check int) "lag before" (List.length ops) (Replica.lag_records r);
  let applied = Replica.catch_up r in
  Alcotest.(check int) "all applied" (List.length ops) applied;
  Alcotest.(check int) "lag after" 0 (Replica.lag_records r);
  Alcotest.(check bool) "lag seconds settled" true (Replica.lag_seconds r = 0.);
  check_twin "caught up" twin r

let test_tailing_never_modifies_leader_files () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  List.iter (apply_durable d) (op_stream 91 20);
  Durable.checkpoint d;
  List.iter (apply_durable d) (op_stream 92 10);
  Durable.close d;
  let before = leader_files dir in
  let r = open_replica dir in
  ignore (Replica.catch_up r);
  ignore (Replica.poll r);
  ignore (Replica.lag_records r);
  ignore (Replica.lag_seconds r);
  ignore (Replica.search r queries.(0));
  Alcotest.(check bool)
    "file names, sizes and mtimes unchanged" true
    (leader_files dir = before)

let test_live_tailing_follows_rollover () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let r = open_replica dir in
  let ops1 = op_stream 93 15 in
  List.iter (apply_online twin) ops1;
  List.iter (apply_durable d) ops1;
  Alcotest.(check int) "first batch" (List.length ops1) (Replica.poll r);
  check_twin "mid-stream" twin r;
  (* Leader checkpoints: generation rolls over under the replica. *)
  Durable.checkpoint d;
  let ops2 = op_stream 94 12 in
  List.iter (apply_online twin) ops2;
  List.iter (apply_durable d) ops2;
  Alcotest.(check int) "post-rollover batch" (List.length ops2) (Replica.poll r);
  let s = Replica.status r in
  Alcotest.(check int) "no reopen needed" 0 s.Replica.reopens;
  Alcotest.(check int) "tailing the new generation" (Durable.generation d)
    s.Replica.generation;
  check_twin "after rollover" twin r;
  Durable.close d

(* Regression: the leader appends tail records to the tailed log and
   checkpoints in the window between the replica's read of that log and
   its rollover decision.  A rollover decided on a post-read observation
   of wal-(g+1) would switch logs without the tail records — silent
   divergence; drain must re-read the closed log before switching. *)
let test_rollover_race_does_not_skip_tail_records () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let r = open_replica dir in
  let ops1 = op_stream 105 10 in
  List.iter (apply_online twin) ops1;
  List.iter (apply_durable d) ops1;
  Alcotest.(check int) "first batch" (List.length ops1) (Replica.poll r);
  let tail = op_stream 106 5 in
  let fired = ref false in
  Replica.set_after_read_hook_for_testing r
    (Some
       (fun () ->
         if not !fired then begin
           fired := true;
           List.iter (apply_online twin) tail;
           List.iter (apply_durable d) tail;
           Durable.checkpoint d
         end));
  let n = Replica.poll r in
  Replica.set_after_read_hook_for_testing r None;
  Alcotest.(check bool) "race fired" true !fired;
  Alcotest.(check int) "tail records applied, not skipped" (List.length tail) n;
  let s = Replica.status r in
  Alcotest.(check int) "rolled to the new generation" (Durable.generation d)
    s.Replica.generation;
  Alcotest.(check int) "no reopen needed" 0 s.Replica.reopens;
  check_twin "twin across racy rollover" twin r;
  Durable.close d

(* Same race, but generation GC deletes the tailed log before the
   re-read: the tail records are only reachable through the newer
   snapshot, so the replica must fall back to a full reopen — detected
   recovery, never silent loss. *)
let test_rollover_race_with_gc_forces_reopen () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let r = open_replica dir in
  let ops1 = op_stream 107 10 in
  List.iter (apply_online twin) ops1;
  List.iter (apply_durable d) ops1;
  ignore (Replica.poll r);
  let tail = op_stream 108 5 in
  let fired = ref false in
  Replica.set_after_read_hook_for_testing r
    (Some
       (fun () ->
         if not !fired then begin
           fired := true;
           List.iter (apply_online twin) tail;
           List.iter (apply_durable d) tail;
           (* Two checkpoints: the second GCs the log the replica is
              mid-decision on. *)
           Durable.checkpoint d;
           Durable.checkpoint d
         end));
  ignore (Replica.poll r);
  Replica.set_after_read_hook_for_testing r None;
  Alcotest.(check bool) "race fired" true !fired;
  Alcotest.(check int) "reopened" 1 (Replica.status r).Replica.reopens;
  check_twin "twin after GC'd rollover" twin r;
  Durable.close d

let test_torn_tail_applies_valid_prefix_then_resumes () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  let ops = op_stream 95 8 in
  List.iter (apply_durable d) ops;
  Durable.close d;
  let wal_path = Layout.wal_path ~dir 1 in
  let full = read_file wal_path in
  (* Simulate an append in flight: half a record past a valid prefix. *)
  let scan = Wal.scan ~path:wal_path in
  let cut = scan.Wal.valid_bytes - 11 in
  write_file wal_path (String.sub full 0 cut);
  let r = open_replica dir in
  let n1 = Replica.catch_up r in
  Alcotest.(check bool) "partial apply" true (n1 < List.length ops && n1 > 0);
  Alcotest.(check bool) "torn reported" true ((Replica.status r).Replica.last_error <> None);
  (* The missing bytes land (leader finished the write): resume from the
     cursor without reopening. *)
  write_file wal_path full;
  let n2 = Replica.poll r in
  Alcotest.(check int) "resumed the rest" (List.length ops - n1) n2;
  Alcotest.(check int) "no reopen" 0 (Replica.status r).Replica.reopens;
  let twin = make_twin () in
  List.iter (apply_online twin) ops;
  check_twin "after torn resume" twin r

let test_shrunken_wal_forces_reopen () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  let ops = op_stream 96 10 in
  List.iter (apply_durable d) ops;
  Durable.close d;
  let wal_path = Layout.wal_path ~dir 1 in
  let full = read_file wal_path in
  let r = open_replica dir in
  ignore (Replica.catch_up r);
  (* A recovering leader truncated history below our cursor: keep only
     the first 4 records (header is 24 bytes per record). *)
  let keep =
    let p = Wal.read_valid_prefix ~path:wal_path () in
    let off = ref 0 in
    Array.iteri
      (fun i payload -> if i < 4 then off := !off + 24 + String.length payload)
      p.Wal.payloads;
    !off
  in
  write_file wal_path (String.sub full 0 keep);
  ignore (Replica.poll r);
  Alcotest.(check int) "reopened" 1 (Replica.status r).Replica.reopens;
  let twin = make_twin () in
  List.iteri (fun i op -> if i < 4 then apply_online twin op) ops;
  check_twin "rewound to truncated history" twin r

let test_ship_and_tail_copy () =
  with_dir @@ fun ldir ->
  with_dir @@ fun fdir ->
  let twin = make_twin () in
  let d, _ = make_durable ldir in
  let ops1 = op_stream 97 15 in
  List.iter (apply_online twin) ops1;
  List.iter (apply_durable d) ops1;
  Alcotest.(check bool) "first ship copies bytes" true
    (Replica.ship ~src:ldir ~dst:fdir () > 0);
  let r = open_replica fdir in
  ignore (Replica.catch_up r);
  check_twin "shipped copy" twin r;
  (* Incremental: leader keeps writing and checkpoints; shipping again
     appends the delta and picks up the new generation's files. *)
  Durable.checkpoint d;
  let ops2 = op_stream 98 10 in
  List.iter (apply_online twin) ops2;
  List.iter (apply_durable d) ops2;
  let before = leader_files ldir in
  ignore (Replica.ship ~src:ldir ~dst:fdir ());
  ignore (Replica.catch_up r);
  check_twin "after incremental ship" twin r;
  Alcotest.(check bool) "shipping never touched the leader" true
    (leader_files ldir = before);
  Durable.close d

(* Regression: the leader crash-recovers between two ship calls —
   truncates a torn tail and re-appends new records past the previously
   shipped length.  Treating the growth as pure append would leave the
   follower's copy with mixed old/new bytes and a permanently torn
   tail; ship must notice the diverged prefix and recopy wholesale. *)
let test_ship_detects_rewritten_history () =
  with_dir @@ fun ldir ->
  with_dir @@ fun fdir ->
  let src_wal = Layout.wal_path ~dir:ldir 1 in
  let dst_wal = Layout.wal_path ~dir:fdir 1 in
  let w = Wal.create ~fsync:false ~path:src_wal () in
  List.iter (fun p -> ignore (Wal.append w p)) [ "alpha"; "bravo"; "charlie" ];
  Wal.close w;
  let valid = read_file src_wal in
  write_file src_wal (valid ^ "half-written record torn by the crash");
  ignore (Replica.ship ~src:ldir ~dst:fdir ());
  Alcotest.(check string) "first ship mirrors src" (read_file src_wal)
    (read_file dst_wal);
  (* Crash recovery on the leader: torn tail truncated, then new records
     re-appended well past the shipped length before the next ship. *)
  write_file src_wal valid;
  let w, _ = Wal.open_append ~fsync:false ~path:src_wal () in
  List.iter
    (fun p -> ignore (Wal.append w p))
    [ "delta-replacement-one"; "echo-replacement-two"; "foxtrot-replacement-three" ];
  Wal.close w;
  Alcotest.(check bool) "src grew past the shipped length" true
    (String.length (read_file src_wal) > String.length (read_file dst_wal));
  ignore (Replica.ship ~src:ldir ~dst:fdir ());
  Alcotest.(check string) "diverged log recopied wholesale" (read_file src_wal)
    (read_file dst_wal);
  let p = Wal.read_valid_prefix ~path:dst_wal () in
  Alcotest.(check bool) "follower copy is clean" false p.Wal.prefix_torn;
  Alcotest.(check int) "all records present" 6 (Array.length p.Wal.payloads)

(* The heart of the failover harness: kill the leader at every WAL byte
   offset; whatever survives on disk, the replica must come up as the
   twin of exactly the surviving valid-record prefix.  Expected twins
   are cached per record count — there are only n_ops+1 distinct
   states for len(wal)+1 cut points. *)
let test_kill_at_every_wal_offset () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  let ops = op_stream 99 6 in
  List.iter (apply_durable d) ops;
  Durable.close d;
  let snap = read_file (Layout.snapshot_path ~dir 1) in
  let full = read_file (Layout.wal_path ~dir 1) in
  let ops = Array.of_list ops in
  let twins = Hashtbl.create 8 in
  let twin_for n =
    match Hashtbl.find_opt twins n with
    | Some t -> t
    | None ->
        let t = make_twin () in
        for i = 0 to n - 1 do
          apply_online t ops.(i)
        done;
        Hashtbl.add twins n t;
        t
  in
  for cut = 0 to String.length full do
    with_dir @@ fun cdir ->
    write_file (Layout.snapshot_path ~dir:cdir 1) snap;
    write_file (Layout.wal_path ~dir:cdir 1) (String.sub full 0 cut);
    let r = open_replica cdir in
    ignore (Replica.catch_up r);
    let survived = (Replica.status r).Replica.applied in
    check_twin (Printf.sprintf "kill at wal byte %d" cut) (twin_for survived) r
  done;
  (* Sanity: the harness exercised both the empty and the full prefix. *)
  Alcotest.(check bool) "cuts covered both extremes" true
    (Hashtbl.mem twins 0 && Hashtbl.mem twins (Array.length ops))

let test_kill_points_during_checkpoint () =
  List.iter
    (fun kill ->
      with_dir @@ fun dir ->
      let twin = make_twin () in
      let d, _ = make_durable dir in
      let ops = op_stream 100 12 in
      List.iter (apply_online twin) ops;
      List.iter (apply_durable d) ops;
      (match Durable.checkpoint ~kill d with
      | () -> Alcotest.fail "kill point did not fire"
      | exception Durable.Killed _ -> ());
      Durable.close d;
      (* No leader recovery ran: the replica faces the half-finished
         checkpoint exactly as the crash left it. *)
      let r = open_replica dir in
      ignore (Replica.catch_up r);
      check_twin "replica over killed checkpoint" twin r)
    [ Durable.After_snapshot; Durable.After_wal_switch ]

let test_promote_fences_and_leads () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let ops = op_stream 101 15 in
  List.iter (apply_online twin) ops;
  List.iter (apply_durable d) ops;
  let old_generation = Durable.generation d in
  Durable.close d;
  let m = Metrics.create () in
  Metrics.with_installed m (fun () ->
      let r = open_replica dir in
      ignore (Replica.catch_up r);
      let promoted = Replica.promote ~fsync:false ~encode r in
      Alcotest.(check bool)
        "fenced above the old timeline" true
        (Durable.generation promoted > old_generation);
      Alcotest.(check int) "promotion counted" 1
        (Registry.counter_value m.Metrics.replica_promotions_total);
      (match Replica.poll r with
      | _ -> Alcotest.fail "poll after promote must raise"
      | exception Invalid_argument _ -> ());
      (* The new leader keeps writing; the twin follows. *)
      let more = op_stream 102 10 in
      List.iter (apply_online twin) more;
      List.iter (apply_durable promoted) more;
      Alcotest.(check int) "twin size after promotion" (Online.size twin)
        (Durable.size promoted);
      Alcotest.(check bool)
        "twin rng after promotion" true
        (Online.rng_state twin = Online.rng_state (Durable.online promoted));
      Array.iteri
        (fun i q ->
          if Online.search twin q <> Durable.search promoted q then
            Alcotest.failf "query %d diverges after promotion" i)
        queries;
      Durable.close promoted);
  (* A later recovery starts from the promoted timeline, not the old
     one — zombie appends to the fenced generation are unreachable. *)
  let d2, recovery =
    Durable.open_or_create ~rng:(Rng.create 42) ~space:l2 ~config:small_config
      ~rebuild_factor:1.5 ~target_accuracy:0.9 ~encode ~decode ~dir ()
  in
  (match recovery.Durable.source with
  | `Snapshot g ->
      Alcotest.(check bool) "recovered from the fence or later" true (g > old_generation)
  | _ -> Alcotest.fail "expected snapshot recovery");
  Alcotest.(check int) "promoted history replayed" (Online.size twin) (Durable.size d2);
  Durable.close d2

let test_replica_metrics_wired () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  let ops = op_stream 103 10 in
  List.iter (apply_durable d) ops;
  Durable.close d;
  let m = Metrics.create () in
  Metrics.with_installed m (fun () ->
      let r = open_replica dir in
      ignore (Replica.catch_up r);
      Alcotest.(check int) "applied counter" (List.length ops)
        (Registry.counter_value m.Metrics.replica_applied_total);
      Alcotest.(check int) "lag gauge settled" 0
        (Registry.gauge_value m.Metrics.replica_lag_records))

(* Readers hammer the replica from [domains] domains while the main
   domain applies records — the lock-free publication path must keep
   every concurrently observed answer coherent (a valid prefix of
   history), and the final state must still be the twin. *)
let test_concurrent_reads_while_applying () =
  with_dir @@ fun dir ->
  let twin = make_twin () in
  let d, _ = make_durable dir in
  let r = open_replica dir in
  let stop = Atomic.make false in
  let readers =
    List.init domains (fun k ->
        Domain.spawn (fun () ->
            let n = ref 0 in
            while not (Atomic.get stop) do
              let q = queries.(!n mod Array.length queries) in
              (match Replica.search r q with
              | { Online.nn = Some (_, dist); _ } ->
                  if Float.is_nan dist then failwith "nan distance"
              | { Online.nn = None; _ } -> ());
              (* Handle reads race the applier's deletes: a dead handle
                 must raise cleanly, never crash or misbehave (the dead
                 set is a monotone byte map, not a resizing table). *)
              (match Replica.get r (!n mod Array.length seed_db) with
              | (_ : float array) -> ()
              | exception Invalid_argument _ -> ());
              incr n
            done;
            (k, !n)))
  in
  let ops = op_stream 104 40 in
  List.iter
    (fun op ->
      apply_online twin op;
      apply_durable d op;
      ignore (Replica.poll r))
    ops;
  Atomic.set stop true;
  let counts = List.map Domain.join readers in
  Alcotest.(check int) "all readers ran" domains (List.length counts);
  Durable.close d;
  ignore (Replica.catch_up r);
  check_twin "twin despite concurrent readers" twin r

(* A permanently torn tail behind a dead leader used to stall catch_up
   for the full stall_limit ladder; ~deadline must cap the whole loop
   regardless of how generous stall_limit is. *)
let test_catch_up_deadline_bounds_stall () =
  with_dir @@ fun dir ->
  let d, _ = make_durable dir in
  let ops = op_stream 111 8 in
  List.iter (apply_durable d) ops;
  Durable.close d;
  let wal_path = Layout.wal_path ~dir 1 in
  let full = read_file wal_path in
  let scan = Wal.scan ~path:wal_path in
  write_file wal_path (String.sub full 0 (scan.Wal.valid_bytes - 7));
  let r = open_replica dir in
  let t0 = Unix.gettimeofday () in
  let applied = Replica.catch_up ~stall_limit:1_000_000 ~deadline:0.25 r in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "valid prefix applied" true
    (applied > 0 && applied < List.length ops);
  Alcotest.(check bool)
    (Printf.sprintf "deadline held (%.2fs)" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "torn tail reported" true
    ((Replica.status r).Replica.last_error <> None)

(* dbh-cli replicate --follow regression: a follow loop told to stop
   (the CLI flips an atomic from its SIGINT/SIGTERM handler) must exit
   promptly, having shipped + applied what the leader wrote, and leave
   the replica closed with the lag gauges flushed to 0. *)
let test_follow_stops_cleanly () =
  with_dir @@ fun ldir ->
  with_dir @@ fun fdir ->
  let twin = make_twin () in
  let d, _ = make_durable ldir in
  let ops = op_stream 112 12 in
  List.iter (apply_online twin) ops;
  List.iter (apply_durable d) ops;
  ignore (Replica.ship ~src:ldir ~dst:fdir ());
  let m = Metrics.create () in
  Metrics.with_installed m (fun () ->
      let r = open_replica fdir in
      let stop = Atomic.make false in
      let rounds = Atomic.make 0 and applied = Atomic.make 0 in
      let follower =
        Thread.create
          (fun () ->
            Replica.follow ~ship_from:ldir ~interval:0.02
              ~should_stop:(fun () -> Atomic.get stop)
              ~on_round:(fun ~shipped:_ ~applied:n ->
                Atomic.incr rounds;
                ignore (Atomic.fetch_and_add applied n))
              r)
          ()
      in
      (* The leader keeps writing while the loop runs; wait until the
         follower has observed everything, then ask it to stop. *)
      let tail = op_stream 113 6 in
      List.iter (apply_online twin) tail;
      List.iter (apply_durable d) tail;
      let want = Online.size twin in
      let t0 = Unix.gettimeofday () in
      while Replica.size r <> want && Unix.gettimeofday () -. t0 < 10. do
        Thread.yield ();
        Unix.sleepf 0.01
      done;
      Atomic.set stop true;
      Thread.join follower;
      Alcotest.(check bool) "rounds ran" true (Atomic.get rounds > 0);
      Alcotest.(check int) "every record applied through follow"
        (List.length ops + List.length tail)
        (Atomic.get applied);
      Alcotest.(check bool) "replica closed on exit" true (Replica.closed r);
      Alcotest.(check int) "lag gauge flushed" 0
        (Registry.gauge_value m.Metrics.replica_lag_records);
      (* Reads survive close; the applied state is the twin. *)
      check_twin "twin after follow stop" twin r;
      (match Replica.poll r with
      | _ -> Alcotest.fail "poll after close must raise"
      | exception Invalid_argument _ -> ()));
  Durable.close d

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "replica"
    [
      ( "retry",
        [
          Alcotest.test_case "deterministic geometric backoff" `Quick
            test_retry_deterministic_geometric;
          Alcotest.test_case "jitter stays bounded" `Quick test_retry_jitter_bounded;
          Alcotest.test_case "bad policies rejected" `Quick test_retry_rejects_bad_policies;
          Alcotest.test_case "backoff_within caps and stops" `Quick
            test_retry_backoff_within_caps_and_stops;
          Alcotest.test_case "backoff_within preserves the jitter stream" `Quick
            test_retry_backoff_within_preserves_jitter_stream;
        ] );
      ( "wal-tailing",
        [
          Alcotest.test_case "resumable cursor" `Quick test_prefix_resumable_cursor;
          Alcotest.test_case "read path never truncates" `Quick test_prefix_never_truncates;
          Alcotest.test_case "shrink detected" `Quick test_prefix_detects_shrink;
        ] );
      ( "layout",
        qsuite [ test_layout_strays_never_discovered ]
        @ [
            Alcotest.test_case "checkpoint GC spares strays" `Quick
              test_layout_checkpoint_gc_spares_strays;
          ] );
      ( "replica",
        [
          Alcotest.test_case "catch-up is a bit-identical twin" `Quick test_catch_up_is_twin;
          Alcotest.test_case "tailing never modifies leader files" `Quick
            test_tailing_never_modifies_leader_files;
          Alcotest.test_case "live tailing follows rollover" `Quick
            test_live_tailing_follows_rollover;
          Alcotest.test_case "rollover race does not skip tail records" `Quick
            test_rollover_race_does_not_skip_tail_records;
          Alcotest.test_case "rollover race with GC forces reopen" `Quick
            test_rollover_race_with_gc_forces_reopen;
          Alcotest.test_case "torn tail: apply prefix, then resume" `Quick
            test_torn_tail_applies_valid_prefix_then_resumes;
          Alcotest.test_case "shrunken wal forces reopen" `Quick
            test_shrunken_wal_forces_reopen;
          Alcotest.test_case "ship and tail a copy" `Quick test_ship_and_tail_copy;
          Alcotest.test_case "ship detects rewritten history" `Quick
            test_ship_detects_rewritten_history;
          Alcotest.test_case "metrics wired" `Quick test_replica_metrics_wired;
          Alcotest.test_case "concurrent reads while applying" `Quick
            test_concurrent_reads_while_applying;
          Alcotest.test_case "catch-up deadline bounds a stall" `Quick
            test_catch_up_deadline_bounds_stall;
          Alcotest.test_case "follow stops cleanly" `Quick test_follow_stops_cleanly;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill at every wal byte offset" `Slow
            test_kill_at_every_wal_offset;
          Alcotest.test_case "kill points during checkpoint" `Quick
            test_kill_points_during_checkpoint;
          Alcotest.test_case "promote fences and leads" `Quick
            test_promote_fences_and_leads;
        ] );
    ]
