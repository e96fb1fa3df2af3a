module Rng = Dbh_util.Rng
module Stats = Dbh_util.Stats
module Bitvec = Dbh_util.Bitvec
module Space = Dbh_space.Space

(* Estimated cost of the distance call behind pivot pair [pairs.(idx)]:
   sequence metrics cost the product of the endpoint lengths, so chunk
   boundaries in the pair fan-outs balance on that product.  [None]
   (constant-cost space) keeps the historical fixed-length chunks. *)
let pair_cost space pivots pairs =
  if Space.has_item_cost space then
    Some
      (fun idx ->
        let i, j = pairs.(idx) in
        Space.item_cost space pivots.(i) * Space.item_cost space pivots.(j))
  else None

type binary_fn = {
  p1 : int;
  p2 : int;
  d12 : float;
  t1 : float;
  t2 : float;
  spread : float;
}

(* The functions live only in flat unboxed arrays, function [i] at a
   fixed stride in each: its pivot pair at [pairs.(2i)], [pairs.(2i+1)],
   its line at [lines.(3i)] (d12), [3i+1] (t1) and [3i+2] (t2), and the
   multi-probe scale at [spreads.(i)].  Evaluating a function reads one
   int pair and three adjacent floats instead of chasing a record and
   its boxed fields; [fn] builds the record view on demand. *)
type 'a t = {
  space : 'a Space.t;
  pivots : 'a array;
  pairs : int array;
  lines : float array;
  spreads : float array;
}

let space t = t.space
let size t = Array.length t.spreads
let num_pivots t = Array.length t.pivots
let pivots t = t.pivots

let fn t i =
  let l = 3 * i in
  {
    p1 = t.pairs.(2 * i);
    p2 = t.pairs.((2 * i) + 1);
    d12 = t.lines.(l);
    t1 = t.lines.(l + 1);
    t2 = t.lines.(l + 2);
    spread = t.spreads.(i);
  }

(* Lay construction's records out flat. *)
let of_fns ~space ~pivots fns =
  let n = Array.length fns in
  let pairs = Array.make (2 * n) 0 and lines = Array.make (3 * n) 0. in
  Array.iteri
    (fun i f ->
      pairs.(2 * i) <- f.p1;
      pairs.((2 * i) + 1) <- f.p2;
      lines.(3 * i) <- f.d12;
      lines.((3 * i) + 1) <- f.t1;
      lines.((3 * i) + 2) <- f.t2)
    fns;
  { space; pivots; pairs; lines; spreads = Array.map (fun f -> f.spread) fns }

(* Threshold interval from (a discretized) V(X1,X2), Eq. 6: an interval
   capturing half the sample mass.  For u in [0, 1/2],
   [t1,t2] = [q(u), q(u+1/2)] ranges over all such intervals; edges that
   fall at the extreme order statistics are widened to ±infinity so that
   out-of-sample queries beyond the sample range are still classified with
   the nearby half. *)
let interval_at sorted_projections u =
  let n = Array.length sorted_projections in
  let edge_lo = 1. /. float_of_int (2 * n) in
  let edge_hi = 1. -. edge_lo in
  let t1 = if u <= edge_lo then neg_infinity else Stats.quantiles_of_sorted sorted_projections u in
  let hi = u +. 0.5 in
  let t2 = if hi >= edge_hi then infinity else Stats.quantiles_of_sorted sorted_projections hi in
  (t1, t2)

let draw_interval rng sorted_projections = interval_at sorted_projections (Rng.float rng 0.5)

let all_pairs m =
  let pairs = Array.make (m * (m - 1) / 2) (0, 0) in
  let idx = ref 0 in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      pairs.(!idx) <- (i, j);
      incr idx
    done
  done;
  pairs

let sample_pairs rng m count =
  (* Distinct unordered pairs by rejection; count is assumed << C(m,2)/2
     or we fall back to enumerating. *)
  let total = m * (m - 1) / 2 in
  if count >= total then all_pairs m
  else begin
    let seen = Hashtbl.create (2 * count) in
    let pairs = Array.make count (0, 0) in
    let filled = ref 0 in
    while !filled < count do
      let i = Rng.int rng m in
      let j = Rng.int rng m in
      if i <> j then begin
        let p = (min i j, max i j) in
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.add seen p ();
          pairs.(!filled) <- p;
          incr filled
        end
      end
    done;
    pairs
  end

let spread_of sorted =
  let iqr =
    Stats.quantiles_of_sorted sorted 0.75 -. Stats.quantiles_of_sorted sorted 0.25
  in
  if iqr > 0. then iqr else 1.

(* The sample's projections on the line through pivots [i] and [j]:
   [Projection.project_with] spelled out, as in [eval_fns], so that no
   float is boxed. *)
let project_sample dist_sp i j d12 =
  let a = dist_sp.(i) and b = dist_sp.(j) in
  let proj = Array.make (Array.length a) 0. in
  for k = 0 to Array.length a - 1 do
    let d1 = a.(k) and d2 = b.(k) in
    proj.(k) <- ((d1 *. d1) +. (d12 *. d12) -. (d2 *. d2)) /. (2. *. d12)
  done;
  proj

(* Where a build reads its distances: [dist_sp.(p).(k)] is D(sample k,
   pivot p), [d12 i j] is D(pivot i, pivot j), and [pair_cost pairs]
   weighs the chunks of a fan-out over [pairs]. *)
type distances = {
  dist_sp : float array array;
  d12 : int -> int -> float;
  pair_cost : (int * int) array -> (int -> int) option;
}

(* ------------------------------------------------- uniform construction *)

(* The paper's data-oblivious construction (Sec. V-B): pairs are either
   all of C(m,2) or drawn from [rng] by rejection, and each pair's
   interval is drawn uniformly from V(X1,X2), consuming [rng]
   sequentially in pair order for every pool size. *)
let build_uniform ?pool ~rng ~m ~dist ~max_functions () =
  let pairs =
    match max_functions with
    | None -> all_pairs m
    | Some count ->
        if count < 1 then invalid_arg "Hash_family.make: max_functions must be positive";
        sample_pairs rng m count
  in
  let finish (i, j) d12 sorted =
    let t1, t2 = draw_interval rng sorted in
    { p1 = i; p2 = j; d12; t1; t2; spread = spread_of sorted }
  in
  (* A chunk's map is the pure, expensive part (pivot-pair distance,
     projections, sort); its fold draws the thresholds. *)
  let project ((i, j) as pair) =
    let d12 = dist.d12 i j in
    if not (d12 > 0.) then None
    else begin
      let sorted = project_sample dist.dist_sp i j d12 in
      Stats.sort_floats sorted;
      Some (pair, d12, sorted)
    end
  in
  Dbh_util.Pool.map_reduce_chunks ?pool ?cost:(dist.pair_cost pairs)
    (Array.length pairs)
    ~map:(fun ~lo ~hi -> Array.init (hi - lo) (fun p -> project pairs.(lo + p)))
    ~fold:
      (Array.fold_left (fun out -> function
         | None -> out
         | Some (pair, d12, sorted) -> finish pair d12 sorted :: out))
    ~init:[]
  |> List.rev |> Array.of_list

(* ------------------------------------------------------------------ make *)

(* [m] distinct ids out of [n], or all of them when [m] is not smaller:
   the ids behind [Rng.subsample], drawn with its very draws. *)
let subsample_ids rng m n = if m >= n then Array.init n Fun.id else Rng.sample_indices rng m n

(* Fail fast on broken distance functions: quantiles, projections and
   keys silently corrupt on NaN or negative values, and on +∞ (a
   projection through it is ∞ − ∞ = NaN).  Every distance a build
   computes passes here once, as it is computed. *)
let fault_of d =
  if d = Float.infinity then "returned infinity" else "returned NaN or a negative value"

let checked ~caller d =
  if not (d >= 0. && d < Float.infinity) then
    invalid_arg (caller ^ ": distance function " ^ fault_of d);
  d

(* One row per object: its checked distances to every pivot, in pivot
   order and in the argument order every cache uses, [distance obj
   pivot].  Rows are independent, so a pool computes them in parallel;
   the rows (and the check) are identical either way. *)
let distance_rows ?pool ~caller space pivots objs =
  Dbh_util.Pool.parallel_map_array ?pool ?cost:(Space.cost_estimator space objs)
    (fun obj -> Array.map (fun p -> checked ~caller (space.Space.distance obj p)) pivots)
    objs

(* The sample rows turned pivot-major, so that a line's projections
   read two contiguous rows. *)
let by_pivot m rows =
  let dist_sp = Array.make_matrix m (Array.length rows) 0. in
  Array.iteri
    (fun k row ->
      for p = 0 to m - 1 do
        dist_sp.(p).(k) <- row.(p)
      done)
    rows;
  dist_sp

(* The rng draws every build starts with, as ids into [data]: X_small
   (returned with its objects, the pivots), then the threshold
   sample. *)
let draw ~rng ~num_pivots ~threshold_sample data =
  let n = Array.length data in
  if n < 2 then invalid_arg "Hash_family.make: need at least 2 objects";
  if num_pivots < 2 then invalid_arg "Hash_family.make: need at least 2 pivots";
  let pivot_ids = subsample_ids rng num_pivots n in
  (pivot_ids, Array.map (Array.get data) pivot_ids, subsample_ids rng threshold_sample n)

(* The one threshold fit, whatever the source of [dist]. *)
let fit ?pool ~rng ~space ~pivots ~dist ~max_functions () =
  let fns = build_uniform ?pool ~rng ~m:(Array.length pivots) ~dist ~max_functions () in
  if Array.length fns = 0 then
    invalid_arg "Hash_family.make: all pivot pairs are at distance 0";
  of_fns ~space ~pivots fns

(* Standalone: pays the m·s sample rows up front and each pivot pair's
   distance as its line is fit, nothing more. *)
let make ?pool ~rng ~space ?(num_pivots = 100) ?(threshold_sample = 500) ?max_functions data =
  let caller = "Hash_family.make" in
  let _, pivots, sample_ids = draw ~rng ~num_pivots ~threshold_sample data in
  let rows = distance_rows ?pool ~caller space pivots (Array.map (Array.get data) sample_ids) in
  let dist =
    {
      dist_sp = by_pivot (Array.length pivots) rows;
      d12 = (fun i j -> checked ~caller (space.Space.distance pivots.(i) pivots.(j)));
      pair_cost = pair_cost space pivots;
    }
  in
  fit ?pool ~rng ~space ~pivots ~dist ~max_functions ()

(* The same draws and the same fit as [make], over the whole data ×
   pivot table, paid for first: the sample's rows and every pivot pair's
   distance are already in it, so the fit pays nothing more. *)
let make_with_table ?pool ~rng ~space ~num_pivots ~threshold_sample ~max_functions data =
  let pivot_ids, pivots, sample_ids = draw ~rng ~num_pivots ~threshold_sample data in
  let table = distance_rows ?pool ~caller:"Hash_family.make" space pivots data in
  let dist =
    {
      dist_sp = by_pivot (Array.length pivots) (Array.map (Array.get table) sample_ids);
      d12 = (fun i j -> table.(pivot_ids.(i)).(j));
      pair_cost = (fun _ -> None);
    }
  in
  (fit ?pool ~rng ~space ~pivots ~dist ~max_functions (), table)

(* ----------------------------------------------------------- evaluation *)

type 'a cache = {
  obj : 'a;
  dists : float array;  (* nan = not yet computed *)
  mutable misses : int;
  mutable hits : int;
  mutable fault : string option;  (* why a distance paid so far fails [checked] *)
  budget : Budget.t option;  (* charged before each uncached distance *)
  trace : Dbh_obs.Trace.t option;
}

let cache ?budget ?trace t obj =
  {
    obj;
    dists = Array.make (num_pivots t) nan;
    misses = 0;
    hits = 0;
    fault = None;
    budget;
    trace;
  }

(* Like [cache], but over a caller-owned workspace row (e.g. a query
   scratch) so repeated queries allocate no distance array.  The row may
   be longer than the pivot count; it is re-initialised here, so a dirty
   row from a previous query is fine. *)
let cache_in ?budget ?trace t ~dists obj =
  if Array.length dists < num_pivots t then
    invalid_arg "Hash_family.cache_in: workspace shorter than pivot count";
  Array.fill dists 0 (Array.length dists) nan;
  { obj; dists; misses = 0; hits = 0; fault = None; budget; trace }

let cache_with_distances t obj dists =
  if Array.length dists <> num_pivots t then
    invalid_arg "Hash_family.cache_with_distances: wrong number of distances";
  (* A pivot-table row holds no NaN: every entry was checked when it was
     computed ([distance_rows]).  So [touch] never takes it for a miss,
     nothing writes to the row, and caches on any domain may share it. *)
  { obj; dists; misses = 0; hits = 0; fault = None; budget = None; trace = None }

let pivot_table ?pool t objs =
  distance_rows ?pool ~caller:"Hash_family.pivot_table" t.space t.pivots objs

let cache_cost c = c.misses
let cache_hits c = c.hits

let check_cache ~caller c =
  match c.fault with
  | Some why -> invalid_arg (caller ^ ": distance function " ^ why)
  | None -> ()

(* Pay for pivot [i]'s distance (budget charge first), count the miss
   and trace it.  Out of line: misses are the rare case once a query's
   pivots are in. *)
let miss t c i =
  (match c.budget with Some b -> Budget.charge b | None -> ());
  let d = t.space.Space.distance c.obj t.pivots.(i) in
  if not (d >= 0. && d < Float.infinity) then c.fault <- Some (fault_of d);
  c.dists.(i) <- d;
  c.misses <- c.misses + 1;
  match c.trace with
  | Some tr -> Dbh_obs.Trace.record tr (Dbh_obs.Trace.Pivot_miss { pivot = i })
  | None -> ()

(* Make pivot [i]'s distance present in the cache, paying for it on a
   miss and counting the lookup either way; a hit is traced only when a
   trace is attached.  Returns unit so callers read [c.dists.(i)]
   unboxed. *)
let[@inline] touch t c i =
  if Float.is_nan c.dists.(i) then miss t c i
  else begin
    c.hits <- c.hits + 1;
    match c.trace with
    | Some tr -> Dbh_obs.Trace.record tr (Dbh_obs.Trace.Pivot_hit { pivot = i })
    | None -> ()
  end

let pivot_distance t c i =
  touch t c i;
  c.dists.(i)

let project t c i =
  let d1 = pivot_distance t c t.pairs.(2 * i) in
  let d2 = pivot_distance t c t.pairs.((2 * i) + 1) in
  Projection.project_with ~d1 ~d2 ~d12:t.lines.(3 * i)

let eval t c i =
  let v = project t c i in
  v >= t.lines.((3 * i) + 1) && v <= t.lines.((3 * i) + 2)

let margin t c i =
  let v = project t c i in
  let t1 = t.lines.((3 * i) + 1) and t2 = t.lines.((3 * i) + 2) in
  let to_t1 = if t1 = neg_infinity then infinity else Float.abs (v -. t1) in
  let to_t2 = if t2 = infinity then infinity else Float.abs (v -. t2) in
  Float.min to_t1 to_t2 /. t.spreads.(i)

let eval_direct t obj i =
  let d1 = t.space.Space.distance obj t.pivots.(t.pairs.(2 * i)) in
  let d2 = t.space.Space.distance obj t.pivots.(t.pairs.((2 * i) + 1)) in
  let v = Projection.project_with ~d1 ~d2 ~d12:t.lines.(3 * i) in
  v >= t.lines.((3 * i) + 1) && v <= t.lines.((3 * i) + 2)

(* ------------------------------------------------------- family rows *)

(* One object's hash bits over the whole family, memoized: cell [i] is
   function [i]'s bit ('\000' or '\001') once evaluated and [unknown]
   until then.  [drawn] logs the function rows evaluated since the last
   clear, so clearing rewrites only cells those rows cover — what was
   evaluated, not the family size — the discipline of the query
   scratch's seen mask, at one log entry per row rather than per cell. *)
type row = {
  cells : Bytes.t;
  mutable drawn : int array array;
  mutable len : int;
}

let unknown = '\002'
let row n = { cells = Bytes.make n unknown; drawn = [||]; len = 0 }
let row_length row = Bytes.length row.cells
let row_cells row = row.cells

let clear_row row =
  for a = 0 to row.len - 1 do
    let fn_ids = row.drawn.(a) in
    for j = 0 to Array.length fn_ids - 1 do
      Bytes.set row.cells (Array.unsafe_get fn_ids j) unknown
    done;
    row.drawn.(a) <- [||]
  done;
  row.len <- 0

(* [eval] of each function of [fn_ids] whose cell is still unknown, in
   order, with every float kept unboxed: the pivot lookups run in the
   order [eval] makes them, so hits, misses, budget charges and trace
   events are exactly those of calling it once per newly evaluated
   function.  A known cell costs nothing — no lookup, no event.  The
   row is logged before any cell is set, so a budget running out
   midway still leaves every set cell covered by the log. *)
let eval_fns t c row fn_ids =
  if row_length row < size t then invalid_arg "Hash_family.eval_fns: row shorter than the family";
  if row.len = Array.length row.drawn then begin
    let grown = Array.make (max 4 (2 * row.len)) [||] in
    Array.blit row.drawn 0 grown 0 row.len;
    row.drawn <- grown
  end;
  row.drawn.(row.len) <- fn_ids;
  row.len <- row.len + 1;
  let dists = c.dists and pairs = t.pairs and lines = t.lines and cells = row.cells in
  for j = 0 to Array.length fn_ids - 1 do
    let i = fn_ids.(j) in
    if Bytes.get cells i = unknown then begin
      let p1 = pairs.(2 * i) and p2 = pairs.((2 * i) + 1) in
      touch t c p1;
      touch t c p2;
      let l = 3 * i in
      let d1 = dists.(p1) and d2 = dists.(p2) and d12 = lines.(l) in
      (* [Projection.project_with], spelled out: a call across the module
         boundary would box both distances and the result. *)
      let v = ((d1 *. d1) +. (d12 *. d12) -. (d2 *. d2)) /. (2. *. d12) in
      Bytes.unsafe_set cells i
        (if v >= lines.(l + 1) && v <= lines.(l + 2) then '\001' else '\000')
    end
  done

let sample_fn_indices ~rng t n =
  if n < 0 then invalid_arg "Hash_family.sample_fn_indices: negative count";
  Array.init n (fun _ -> Rng.int rng (size t))

let signature t ~fn_indices c =
  let bits = Bitvec.create (Array.length fn_indices) in
  Array.iteri (fun pos i -> if eval t c i then Bitvec.set bits pos true) fn_indices;
  bits

let balance t i sample =
  if Array.length sample = 0 then invalid_arg "Hash_family.balance: empty sample";
  let zeros = ref 0 in
  Array.iter (fun x -> if not (eval_direct t x i) then incr zeros) sample;
  float_of_int !zeros /. float_of_int (Array.length sample)

(* ----------------------------------------------------------- persistence *)

module Binio = Dbh_util.Binio

let format_tag = "DBH-family-v2"
let format_tag_v1 = "DBH-family-v1"

(* A v2 envelope carries a second tag after [format_tag]: the selector
   that built the family, from when builds could choose one.  Every
   selector wrote plain thresholded projections, so [read] accepts each
   name earlier builds wrote, and [write] writes the paper's. *)
let legacy_tags = [ "uniform"; "median"; "density"; "nsh" ]

let write ~encode buf t =
  Binio.write_string buf format_tag;
  Binio.write_string buf "uniform";
  Binio.write_int buf (Array.length t.pivots);
  Array.iter (fun p -> Binio.write_string buf (encode p)) t.pivots;
  Binio.write_int buf (size t);
  for i = 0 to size t - 1 do
    Binio.write_int buf t.pairs.(2 * i);
    Binio.write_int buf t.pairs.((2 * i) + 1);
    for l = 3 * i to (3 * i) + 2 do
      Binio.write_float buf t.lines.(l)
    done;
    Binio.write_float buf t.spreads.(i)
  done

let read ~decode ~space r =
  let tag = Binio.read_string r in
  (* v1 envelopes predate the selector tag. *)
  if tag = format_tag then begin
    let sel_tag = Binio.read_string r in
    if not (List.mem sel_tag legacy_tags) then
      raise (Binio.Corrupt (Printf.sprintf "unknown selector tag %S" sel_tag))
  end
  else if tag <> format_tag_v1 then
    raise (Binio.Corrupt (Printf.sprintf "expected %s, found %S" format_tag tag));
  let num_pivots = Binio.read_int r in
  if num_pivots < 0 || num_pivots > Binio.remaining r then
    raise (Binio.Corrupt "implausible pivot count");
  let pivots =
    Array.init num_pivots (fun _ -> Binio.guard_decode decode (Binio.read_string r))
  in
  let num_fns = Binio.read_int r in
  (* Each function takes six 8-byte fields, so the flat arrays allocated
     up front are never larger than the input left to read. *)
  if num_fns < 0 || num_fns > Binio.remaining r / 48 then
    raise (Binio.Corrupt "implausible function count");
  let pairs = Array.make (2 * num_fns) 0 and lines = Array.make (3 * num_fns) 0. in
  let spreads = Array.make num_fns 0. in
  for i = 0 to num_fns - 1 do
    let p1 = Binio.read_int r in
    let p2 = Binio.read_int r in
    for l = 3 * i to (3 * i) + 2 do
      lines.(l) <- Binio.read_float r
    done;
    spreads.(i) <- Binio.read_float r;
    if p1 < 0 || p1 >= num_pivots || p2 < 0 || p2 >= num_pivots then
      raise (Binio.Corrupt "pivot index out of range");
    pairs.(2 * i) <- p1;
    pairs.((2 * i) + 1) <- p2
  done;
  { space; pivots; pairs; lines; spreads }
