module Rng = Dbh_util.Rng
module Binio = Dbh_util.Binio

type level_info = {
  k : int;
  l : int;
  d_threshold : float;
  predicted_accuracy : float;
  predicted_cost : float;
}

type 'a level = {
  info : level_info;
  index : 'a Index.t;
}

type 'a t = {
  store : 'a Store.t;
  family : 'a Hash_family.t;
  levels : 'a level array;
}

let levels t = Array.map (fun lev -> lev.info) t.levels
let indexes t = Array.map (fun lev -> lev.index) t.levels
let store t = t.store
let family t = t.family

(* When no (k,l) reaches the target within l_max, retarget to just below
   the best accuracy any (k, l_max) achieves and optimize for cost there —
   never blindly build l_max tables, which would make the hard stratum
   dominate every cascaded query. *)
let fallback_choice ~slack analysis ~k_min ~k_max ~l_max =
  if k_min > k_max then invalid_arg "Hierarchical.build: empty k range";
  let best_acc = ref 0. in
  for k = k_min to k_max do
    let acc = Analysis.accuracy analysis ~k ~l:l_max in
    if acc > !best_acc then best_acc := acc
  done;
  let target = Float.min 0.9999 (Float.max 0. (!best_acc -. 0.005)) in
  match Params.optimize ~slack analysis ~target_accuracy:target ~k_min ~k_max ~l_max () with
  | Some c -> c
  | None ->
      (* Only reachable when accuracy is ~0 everywhere; one cheap table. *)
      {
        Params.k = k_min;
        l = 1;
        predicted_accuracy = !best_acc;
        predicted_lookup = Analysis.lookup_cost analysis ~k:k_min ~l:1;
        predicted_hash = Analysis.hash_cost analysis ~k:k_min ~l:1;
        predicted_cost = Analysis.total_cost analysis ~k:k_min ~l:1;
      }

let build ?pool ~rng ~family ~db ~analysis ~target_accuracy ?pivot_table ?(levels = 5)
    ?(k_min = 1) ?(k_max = 30) ?(l_max = 1000) ?(slack = 0.) () =
  if levels < 1 then invalid_arg "Hierarchical.build: need at least one level";
  let nq = Analysis.num_queries analysis in
  if nq < levels then invalid_arg "Hierarchical.build: fewer sample queries than levels";
  let store = Store.of_array db in
  let order = Analysis.queries_by_nn_distance analysis in
  (* The model the next level is tuned on.  At [slack = 0] (the paper)
     each level runs alone; with a slack, a stratum-i query reaches
     level i only after levels 0..i-1, so each level is credited with
     what those already catch (the lean cascade plan). *)
  let model = ref analysis in
  let level_array =
    Array.init levels (fun i ->
        (* Contiguous percentile stratum of the NN-distance ranking. *)
        let lo = i * nq / levels in
        let hi = ((i + 1) * nq / levels) - 1 in
        let positions = Array.sub order lo (hi - lo + 1) in
        let stratum = Analysis.restrict !model positions in
        let d_threshold = Analysis.nn_distance analysis order.(hi) in
        let choice =
          match Params.optimize ~slack stratum ~target_accuracy ~k_min ~k_max ~l_max () with
          | Some c -> c
          | None -> fallback_choice ~slack stratum ~k_min ~k_max ~l_max
        in
        if slack > 0. then
          model := Analysis.credit !model ~k:choice.Params.k ~l:choice.Params.l;
        (* Levels stay sequential — each consumes rng draws in level
           order — but every level's own build fans out over the pool. *)
        let index =
          Index.build_on ?pool ~rng ~family ~store ?pivot_table ~k:choice.Params.k
            ~l:choice.Params.l ()
        in
        {
          info =
            {
              k = choice.Params.k;
              l = choice.Params.l;
              d_threshold;
              predicted_accuracy = choice.Params.predicted_accuracy;
              predicted_cost = choice.Params.predicted_cost;
            };
          index;
        })
  in
  { store; family; levels = level_array }

(* The cascade query (Sec. V-A): levels in order, each marking its
   buckets and scoring its fresh candidates, until one settles within
   its threshold.  One pivot cache and one workspace span the levels, so
   hash cost counts distinct pivots overall and lookup cost distinct
   candidates overall; the query records its metrics once, not per
   level.  [limit] is the visibility bound Online pins before probing. *)
let describe t = Printf.sprintf "hierarchical(%d levels)" (Array.length t.levels)

let cascade ~limit opts t q =
  Index.run ~describe t ~opts ~family:t.family ~store:t.store ~limit q (fun r ->
      let rec from li =
        if li < Array.length t.levels then begin
          let lev = t.levels.(li) in
          if not (Index.cascade_level r lev.index ~level:li ~threshold:lev.info.d_threshold)
          then from (li + 1)
        end
      in
      from 0)

let search ?(opts = Query_opts.default) t q = cascade ~limit:max_int opts t q

let search_batch ?(opts = Query_opts.default) t qs =
  Index.batch ~opts ~space:(Hash_family.space t.family) (fun opts q -> search ~opts t q) qs

(* Every level hashes with the cascade's one family, so one pivot cache
   and one family row serve them all: an insert pays each pivot distance
   once and evaluates each hash function once. *)
type 'a keyed = { obj : 'a; cache : 'a Hash_family.cache; row : Hash_family.row }

let key t obj =
  let cache = Hash_family.cache t.family obj in
  let row = Hash_family.row (Hash_family.size t.family) in
  Array.iter (fun lev -> Index.fill_row lev.index cache row) t.levels;
  Hash_family.check_cache ~caller:"Hierarchical.insert" cache;
  { obj; cache; row }

(* The keys are already in the row: indexing reads them, and pays no
   distance and evaluates no function again. *)
let insert_keyed t k =
  let id = Store.add t.store k.obj in
  Array.iter (fun lev -> Index.index_cached lev.index k.cache k.row id) t.levels;
  id

let insert t obj = insert_keyed t (key t obj)

let delete t id = Store.delete t.store id

let compacted t =
  { t with levels = Array.map (fun lev -> { lev with index = Index.compacted lev.index }) t.levels }
let delta_size t = Array.fold_left (fun acc lev -> acc + Index.delta_size lev.index) 0 t.levels

(* ----------------------------------------------------------- persistence *)

let format_tag = "DBH-hierarchical-v1"
let format_tag_packed = "DBH-hierarchical-v2"

let write_with ~tag ~write_body ~encode buf t =
  Binio.write_string buf tag;
  Hash_family.write ~encode buf t.family;
  Index.write_store ~encode buf t.store;
  Binio.write_int buf (Array.length t.levels);
  Array.iter
    (fun lev ->
      Binio.write_float buf lev.info.d_threshold;
      Binio.write_float buf lev.info.predicted_accuracy;
      Binio.write_float buf lev.info.predicted_cost;
      write_body buf lev.index)
    t.levels

let write ~encode buf t = write_with ~tag:format_tag ~write_body:Index.write_body ~encode buf t

let write_packed ~encode buf t =
  write_with ~tag:format_tag_packed ~write_body:Index.write_body_packed ~encode buf t

let read_with ~read_body ~decode ~space r =
  let family = Hash_family.read ~decode ~space r in
  let store = Index.read_store ~decode r in
  let num_levels = Binio.read_int r in
  if num_levels < 1 then raise (Binio.Corrupt "no levels");
  (* Each level reads three floats before its body: bound the count
     before allocating the level array. *)
  if num_levels > Binio.remaining r / 24 then
    raise (Binio.Corrupt (Printf.sprintf "implausible level count %d" num_levels));
  let levels =
    Array.init num_levels (fun _ ->
        let d_threshold = Binio.read_float r in
        let predicted_accuracy = Binio.read_float r in
        let predicted_cost = Binio.read_float r in
        let index = read_body ~family ~store r in
        {
          info =
            {
              k = Index.k index;
              l = Index.l index;
              d_threshold;
              predicted_accuracy;
              predicted_cost;
            };
          index;
        })
  in
  { store; family; levels }

let read ~decode ~space r =
  let tag = Binio.read_string r in
  if tag <> format_tag then
    raise (Binio.Corrupt (Printf.sprintf "expected %s, found %S" format_tag tag));
  read_with ~read_body:Index.read_body ~decode ~space r

(* Accept either body format by tag — the durable layer reads v1 and v2
   snapshots through this single entry point. *)
let read_any ~decode ~space r =
  let tag = Binio.read_string r in
  if tag = format_tag then read_with ~read_body:Index.read_body ~decode ~space r
  else if tag = format_tag_packed then
    read_with ~read_body:Index.read_body_packed ~decode ~space r
  else
    raise
      (Binio.Corrupt
         (Printf.sprintf "expected %s or %s, found %S" format_tag format_tag_packed tag))

let snapshot_kind = "hierarchical"
let snapshot_version = 1

let save ~encode ~path t =
  let buf = Buffer.create 4096 in
  write ~encode buf t;
  Dbh_persist.Envelope.save ~path ~kind:snapshot_kind ~version:snapshot_version
    (Buffer.contents buf)

let load ~decode ~space ~path =
  let payload =
    Dbh_persist.Envelope.read_expect ~kind:snapshot_kind ~version:snapshot_version ~path
  in
  let r = Binio.reader payload in
  let t = read ~decode ~space r in
  if not (Binio.at_end r) then
    raise (Binio.Corrupt "trailing bytes after hierarchical payload");
  t
