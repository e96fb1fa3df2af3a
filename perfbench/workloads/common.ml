(* Pieces the three workloads share: run context, working directories
   inside the checkout, codecs, exact ground truth (cached by a digest of
   the inputs), answer re-verification and the durable close/reopen
   epilogue. *)

module Rng = Dbh_util.Rng
module Stats = Dbh_util.Stats
module Binio = Dbh_util.Binio
module Space = Dbh_space.Space
module Durable = Dbh.Online.Durable
module Ground_truth = Dbh_eval.Ground_truth
open Perfbench_harness

type ctx = { workload : string; seed : int; seconds : float; trace : bool }

(* Everything a run writes lives under this directory of the checkout. *)
let root = ".perfbench"

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let fresh_dir name =
  ensure_dir root;
  let d = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let rec dir_bytes d =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat d f in
      if Sys.is_directory p then acc + dir_bytes p else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir d)

let file_size p = (Unix.stat p).Unix.st_size

(* ---------------------------------------------------------------- codecs *)

let decode_strict read s =
  let r = Binio.reader s in
  let v = read r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes");
  v

let encode_vec (v : float array) =
  let b = Buffer.create (8 * (Array.length v + 1)) in
  Binio.write_float_array b v;
  Buffer.contents b

let decode_vec = decode_strict Binio.read_float_array

let encode_pen (p : Dbh_datasets.Pen_digits.instance) =
  let b = Buffer.create 600 in
  Binio.write_int b p.label;
  Binio.write_float_array b
    (Array.concat (Array.to_list (Array.map (fun (q : Dbh_metrics.Geom.point) -> [| q.x; q.y |]) p.points)));
  Buffer.contents b

let decode_pen =
  decode_strict (fun r ->
      let label = Binio.read_int r in
      let xy = Binio.read_float_array r in
      {
        Dbh_datasets.Pen_digits.label;
        points = Array.init (Array.length xy / 2) (fun i -> Dbh_metrics.Geom.point xy.(2 * i) xy.((2 * i) + 1));
      })

(* Every workload's objects come from one generator call seeded with
   [dataset_seed]: the database is its first [db_size] objects, so every
   run seed measures the same index (as the paper measures fixed
   datasets), and the rest is a pool from which [--seed] draws the
   held-out queries and the objects to insert.  Without this, the
   index's table count moves by about a sixth from seed to seed, and with
   it set-up, bytes, recovery and latency. *)
let dataset_seed = 2008
let index_seed = 411

(* [draw ~rng pool sizes]: disjoint samples of the given sizes, in a
   seeded random order. *)
let draw ~rng pool sizes =
  let total = List.fold_left ( + ) 0 sizes in
  if total > Array.length pool then
    invalid_arg (Printf.sprintf "pool of %d cannot supply %d objects" (Array.length pool) total);
  let perm = Rng.permutation rng (Array.length pool) in
  let off = ref 0 in
  List.map
    (fun n ->
      let part = Array.init n (fun i -> perm.(!off + i)) in
      off := !off + n;
      part)
    sizes

(* ---------------------------------------------------------- ground truth *)

(* The ground truth of the queries at [picks] in a pool's truth. *)
let truth_of (t : Ground_truth.t) picks =
  { t with nn_index = Array.map (fun i -> t.nn_index.(i)) picks; nn_distance = Array.map (fun i -> t.nn_distance.(i)) picks }

(* Exact nearest neighbours of [queries] in [db], computed with the raw
   space outside any timed region.  Cached under [root] by a digest of
   the encoded inputs, so only the first run in a checkout pays the
   scan. *)
let ground_truth ~space ~encode ~db ~queries =
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "\000"
            (space.Space.name
            :: Array.to_list (Array.map encode db)
            @ ("--" :: Array.to_list (Array.map encode queries)))))
  in
  ensure_dir root;
  let path = Filename.concat root ("truth-" ^ key ^ ".bin") in
  let cached =
    if not (Sys.file_exists path) then None
    else
      try
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
            Some (Marshal.from_channel ic : int array * float array))
      with _ -> None
  in
  let nn_index, nn_distance =
    match cached with
    | Some (i, d) when Array.length i = Array.length queries -> (i, d)
    | _ ->
        let gt = Ground_truth.compute ~space ~db ~queries () in
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        Marshal.to_channel oc (gt.nn_index, gt.nn_distance) [];
        close_out oc;
        Sys.rename tmp path;
        (gt.nn_index, gt.nn_distance)
  in
  { Ground_truth.nn_index; nn_distance; cost_per_query = Array.length db }

(* An answer re-verifies when its distance, recomputed against the
   returned object, matches bit for bit. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let verifies ~space ~get q = function
  | None -> false
  | Some (h, d) -> same_bits (space.Space.distance q (get h)) d

(* -------------------------------------------------------------- gc deltas *)

type gc = { minor_words : float; major_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.minor_words; major_words = s.major_words; major_collections = s.major_collections }

let gc_since g =
  let s = gc_now () in
  {
    minor_words = s.minor_words -. g.minor_words;
    major_words = s.major_words -. g.major_words;
    major_collections = s.major_collections - g.major_collections;
  }

(* ----------------------------------------------------------- measurement *)

(* Before a timed phase: collect and compact away set-up's garbage, so
   every run starts the phase from the same heap state instead of paying
   a varying share of set-up's collection work inside the timing. *)
let settle () = Gc.compact ()

(* Words a call allocates on the minor heap (exact, and free to read). *)
let allocated = ref 0.

let counting_alloc f =
  let w0 = Gc.minor_words () in
  let y = f () in
  allocated := !allocated +. (Gc.minor_words () -. w0);
  y

let ms_of_ns ns = float_of_int ns *. 1e-6
let ms_of_s s = s *. 1e3

(* CPU seconds this process has used, all its threads and domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let time_s f =
  let t0 = Clock.now_s () in
  let y = f () in
  (y, Clock.now_s () -. t0)

(* Sample counts behind every reported percentile, for the run record. *)
let samples : (string * int) list ref = ref []
let note_samples name n = samples := (name, n) :: List.remove_assoc name !samples

let pct ~permille name xs =
  note_samples name (Array.length xs);
  Pct.percentile ~permille xs

(* Metrics a workload reports, result-line and record-only ones alike. *)
let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: List.remove_assoc name !metrics
let record : (string * Json.t) list ref = ref []
let note k v = record := (k, v) :: List.remove_assoc k !record

(* Timed [repeats] times, each from a settled heap, reporting the median
   seconds as [name]; only the last result is kept — [discard] drops
   each earlier one before the next repeat, so two never coexist. *)
let repeated ~name ~repeats ~discard f =
  let last = ref None in
  let times =
    Array.init repeats (fun i ->
        Option.iter discard !last;
        last := None;
        settle ();
        let x, s = time_s (fun () -> f i) in
        last := Some x;
        s)
  in
  put name (Stats.median times);
  note (name ^ "_repeats") (Json.Arr (Array.to_list (Array.map (fun s -> Json.Num s) times)));
  Option.get !last

(* Single-threaded workloads: the whole process on its first allowed
   CPU, where the reference units run beside the work. *)
let pin_to_one_cpu () =
  note "affinity"
    (match Affinity.allowed () with
    | cpu :: _ when Affinity.pin_process cpu -> Json.Obj [ ("work", Json.Num (float_of_int cpu)) ]
    | _ -> Json.Null)

(* Raw timings are stated at the reference's nominal speed ([Pace]).
   The run record keeps the reference's own figures and the raw p50
   beside the corrected one. *)
let note_pace ~raw_p50_ms (s : Pace.samples) =
  note "pace"
    (Json.Obj
       [
         ("units", Json.Num (float_of_int (Pace.count s)));
         ("median_us", Json.Num (Pace.median s.us));
         ("nominal_us", Json.Num Pace.nominal_us);
         ("raw_query_p50_ms", Json.Num raw_p50_ms);
       ])

(* ------------------------------------------------------ durable epilogue *)

(* Where the durable directory lives and how its log is flushed. *)
let note_durable ~dir ~fsync =
  note "durable_dir" (Json.Obj [ ("filesystem", Json.Str (Runrec.filesystem dir)); ("fsync", Json.Bool fsync) ])

(* Table counts and table words of the current cascades, read from
   outside. *)
let cascade_metrics onlines =
  let sum f = float_of_int (List.fold_left (fun a o -> a + f (Dbh.Online.index o)) 0 onlines) in
  put "hierarchical.tables"
    (sum (fun h -> Array.fold_left (fun a (l : Dbh.Hierarchical.level_info) -> a + l.l) 0 (Dbh.Hierarchical.levels h)));
  put "csr.table_words"
    (sum (fun h -> Array.fold_left (fun a ix -> a + Dbh.Index.approx_table_words ix) 0 (Dbh.Hierarchical.indexes h)))

let pivots_of online = Dbh.Hash_family.pivots (Dbh.Hierarchical.family (Dbh.Online.index online))

(* Final checkpoint (the caller's timed [checkpoint]), bytes on disk,
   close, then recovery timed as the median of [repeats] reopenings of
   the closed directory.  Returns whether the reopened index answers
   [sample] exactly as the live one did. *)
let durable_epilogue ~checkpoint ~repeats ~dir ~d ~reopen ~user_bytes ~sample =
  let live = Array.map (fun q -> (Durable.search d q).nn) sample in
  checkpoint ();
  let bytes = dir_bytes dir in
  let gen = Durable.generation d in
  put "layout.snapshot_bytes" (float_of_int (file_size (Dbh_persist.Layout.snapshot_path ~dir gen)));
  put "bytes_per_user_byte" (float_of_int bytes /. float_of_int user_bytes);
  note "durable_dir_bytes" (Json.Num (float_of_int bytes));
  Durable.close d;
  let d', r = repeated ~name:"recover_s" ~repeats ~discard:(fun (d', _) -> Durable.close d') (fun _ -> reopen ()) in
  put "durable.replayed_ops" (float_of_int r.Durable.replayed_ops);
  let same = Array.for_all2 (fun q nn -> (Durable.search d' q).nn = nn) sample live in
  Durable.close d';
  same

(* Checkpoints, timed wherever they happen; the table delta waiting to be
   folded is sampled just before each. *)
let checkpoint_ms : float list ref = ref []
let delta_before : int list ref = ref []

let timed_checkpoint ?spans d =
  delta_before := Dbh.Online.delta_size (Durable.online d) :: !delta_before;
  let run () = Durable.checkpoint d in
  let (), s =
    time_s (fun () -> match spans with Some sp -> Spans.with_span sp "durable.checkpoint" run | None -> run ())
  in
  checkpoint_ms := ms_of_s s :: !checkpoint_ms

let checkpoint_metrics () =
  let ms = Array.of_list !checkpoint_ms in
  note_samples "durable.checkpoint_ms" (Array.length ms);
  put "durable.checkpoint_ms_p50" (Stats.median ms);
  put "durable.checkpoint_ms_max" (Array.fold_left Float.max 0. ms);
  put "online.delta_entries" (Stats.mean (Array.of_list (List.map float_of_int !delta_before)))

(* Per-query layer figures from the library's own query stats, over the
   distinct queries of a run. *)
let stats_metrics ~correct (results : 'a Dbh.Online.result array) =
  let n = float_of_int (Array.length results) in
  let sum f = Array.fold_left (fun a (r : _ Dbh.Online.result) -> a + f r) 0 results in
  let hash = sum (fun r -> r.stats.hash_cost) and lookup = sum (fun r -> r.stats.lookup_cost) in
  put "hash_family.dist_per_query" (float_of_int hash /. n);
  put "index.lookup_per_query" (float_of_int lookup /. n);
  put "index.probes_per_query" (float_of_int (sum (fun r -> r.stats.probes)) /. n);
  put "hierarchical.levels_per_query" (float_of_int (sum (fun r -> r.levels_probed)) /. n);
  put "index.refine_yield" (if lookup = 0 then 0. else float_of_int correct /. float_of_int lookup)

(* Layers a workload does not enter report 0 (counts only). *)
let absent names = List.iter (fun n -> if not (List.mem_assoc n !metrics) then put n 0.) names

(* A percentile metric.  [optional] percentiles are skipped, rather than
   failing the run, when the sample is too small for the ten-beyond rule
   (e.g. end-to-end figures inside a traced run, which does not report
   them). *)
let put_pct ?(optional = false) name ~permille sample_name xs =
  if not (optional && not (Pct.reportable ~permille (Array.length xs))) then
    put name (pct ~permille sample_name xs)

(* Set-up spans: distance time inside them, and the rest. *)
let builder_metrics sp =
  let setup = Spans.named sp "builder.setup" in
  let n = float_of_int (max 1 (List.length setup)) in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 setup) *. 1e-9 /. n in
  put "builder.dist_s" (sum (fun (s : Spans.span) -> s.dist.ns));
  put "builder.self_s" (sum Spans.self_ns)

(* Per-query distance figures over the given search spans. *)
let search_metrics ?(dim = 0) searches =
  let n = float_of_int (max 1 (List.length searches)) in
  let sum f = float_of_int (List.fold_left (fun a (s : Spans.span) -> a + f s) 0 searches) /. n in
  put "space.calls_per_query" (sum (fun s -> s.dist.calls));
  put "hash_family.dist_ms_per_query" (sum (fun s -> s.dist.pivot_ns) *. 1e-6);
  put "index.refine_ms_per_query" (sum (fun s -> s.dist.ns - s.dist.pivot_ns) *. 1e-6);
  put "hierarchical.self_ms_per_query" (sum Spans.self_ns *. 1e-6);
  put "dtw.cells_per_query" (sum (fun s -> s.dist.cells));
  if dim > 0 then put "minkowski.bytes_per_query" (float_of_int (2 * dim * 8) *. sum (fun s -> s.dist.calls))

let write_trace ctx = function
  | Some sp -> Spans.write sp (Filename.concat root (Printf.sprintf "trace-%s-%d.tsv" ctx.workload ctx.seed))
  | None -> ()

(* Set-up as the benchmark times it: the median of two builds, each from
   a settled heap into a fresh directory.  [discard] closes the first
   before the second starts, so two indexes never coexist. *)
let timed_setup ?spans ~dir ~build ~discard () =
  let repeats = 2 in
  let gc0 = gc_now () in
  let x =
    repeated ~name:"setup_s" ~repeats ~discard (fun i ->
        if i > 0 then (rm_rf dir; Unix.mkdir dir 0o755);
        match spans with Some sp -> Spans.with_span sp "builder.setup" build | None -> build ())
  in
  put "builder.major_words" ((gc_since gc0).major_words /. float_of_int repeats);
  x
