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
  selector : Selector.t;
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
let of_fns ~space ~pivots ~selector fns =
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
  { space; pivots; pairs; lines; spreads = Array.map (fun f -> f.spread) fns; selector }

let selector t = t.selector
let selector_tag t = Selector.tag t.selector

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

(* The paper's data-oblivious path, kept bit-identical to the
   pre-selector builds: pairs are either all of C(m,2) or drawn from
   [rng] by rejection, and thresholds consume [rng] sequentially in pair
   order for every pool size. *)
let build_uniform ?pool ~rng ~m ~dist ~max_functions strategy =
  let pairs =
    match max_functions with
    | None -> all_pairs m
    | Some count ->
        if count < 1 then invalid_arg "Hash_family.make: max_functions must be positive";
        sample_pairs rng m count
  in
  let finish (i, j) d12 sorted =
    let t1, t2 =
      match (strategy : Selector.threshold_strategy) with
      | Random_interval -> draw_interval rng sorted
      | Median_split -> (neg_infinity, Stats.quantiles_of_sorted sorted 0.5)
    in
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

(* ------------------------------------------ data-dependent construction *)

(* Candidate interval positions: u = 0 (the one-sided member of V) plus
   grid-1 interior offsets.  Deterministic — data-dependent selectors
   consume no randomness beyond the shared pivot/sample draws, so pooled
   and sequential builds agree trivially. *)
let grid_offsets grid = Array.init grid (fun g -> 0.5 *. float_of_int g /. float_of_int grid)

(* Average spacing of the sorted sample projections around quantile [u] —
   the inverse of a local density estimate.  Window of ±max(1, n/50)
   order statistics smooths duplicate-heavy samples. *)
let local_gap sorted u =
  let n = Array.length sorted in
  let w = max 1 (n / 50) in
  let pos = int_of_float ((u *. float_of_int (n - 1)) +. 0.5) in
  let lo = max 0 (pos - w) in
  let hi = min (n - 1) (pos + w) in
  if hi <= lo then 0. else (sorted.(hi) -. sorted.(lo)) /. float_of_int (hi - lo)

(* Sparsity of the boundary at threshold [t] placed at quantile [u]:
   how much wider the local spacing is than the expected bulk spacing
   (spread covers half the mass, so bulk spacing ~ 2·spread/n). *)
let boundary_sparsity ~spread ~n sorted u t =
  if Float.abs t = infinity then infinity
  else local_gap sorted u *. float_of_int n /. (2. *. spread)

(* Score one candidate interval for the density-sensitive selector: the
   sparsity of its worst finite boundary (both boundaries must be hard to
   straddle).  Intervals with no finite boundary accept everything and
   score lowest. *)
let density_score ~spread sorted u (t1, t2) =
  let n = Array.length sorted in
  let s1 = boundary_sparsity ~spread ~n sorted u t1 in
  let s2 = boundary_sparsity ~spread ~n sorted (u +. 0.5) t2 in
  let s = Float.min s1 s2 in
  if s = infinity then neg_infinity else s

(* Approximate k-nearest-neighbor lists within the construction sample,
   using the pivot-embedding lower bound
   max_p |D(p,x_i) − D(p,x_j)| ≤ D(x_i,x_j) over a pivot prefix — free:
   dist_sp is already paid for. *)
let neighbor_lists ?pool ~dist_sp ~m ~s k =
  let np = min m 12 in
  let k = max 1 (min k (s - 1)) in
  let knn i =
    let cand = Array.make (s - 1) (0., 0) in
    let c = ref 0 in
    for j = 0 to s - 1 do
      if j <> i then begin
        let d = ref 0. in
        for p = 0 to np - 1 do
          let diff = Float.abs (dist_sp.(p).(i) -. dist_sp.(p).(j)) in
          if diff > !d then d := diff
        done;
        cand.(!c) <- (!d, j);
        incr c
      end
    done;
    Array.sort compare cand;
    Array.init (min k (s - 1)) (fun r -> snd cand.(r))
  in
  Dbh_util.Pool.parallel_map_array ?pool knn (Array.init s Fun.id)

(* Score one candidate interval for the neighbor-sensitive selector: the
   fraction of (point, near-neighbor) sample pairs whose bits disagree —
   NSH magnifies distinctions among close points so their Hamming ranks
   track their distance ranks. *)
let disagreement_score ~nbrs proj (t1, t2) =
  let s = Array.length proj in
  let bit x = x >= t1 && x <= t2 in
  let total = ref 0 and disagree = ref 0 in
  for i = 0 to s - 1 do
    let bi = bit proj.(i) in
    Array.iter
      (fun j ->
        incr total;
        if bit proj.(j) <> bi then incr disagree)
      nbrs.(i)
  done;
  if !total = 0 then 0. else float_of_int !disagree /. float_of_int !total

(* Shared data-dependent skeleton: score every C(m,2) pair purely (fans
   out across the pool), then select the top-scoring subset sequentially
   and deterministically — same result at every pool size. *)
let build_selected ?pool ~m ~dist ~s ~max_functions ~grid ~score_interval () =
  (match max_functions with
  | Some count when count < 1 -> invalid_arg "Hash_family.make: max_functions must be positive"
  | _ -> ());
  let offsets = grid_offsets grid in
  let score_pair (i, j) =
    let d12 = dist.d12 i j in
    if not (d12 > 0.) then None
    else begin
      let proj = project_sample dist.dist_sp i j d12 in
      let sorted = Array.copy proj in
      Stats.sort_floats sorted;
      let spread = spread_of sorted in
      let best = ref neg_infinity and best_tie = ref neg_infinity in
      let best_iv = ref (interval_at sorted 0.) in
      Array.iter
        (fun u ->
          let iv = interval_at sorted u in
          let sc = score_interval ~spread ~proj ~sorted u iv in
          (* Secondary preference for central (two-sided) intervals keeps
             ties deterministic and the family diverse. *)
          let tie = -.Float.abs (u -. 0.25) in
          if sc > !best || (sc = !best && tie > !best_tie) then begin
            best := sc;
            best_tie := tie;
            best_iv := iv
          end)
        offsets;
      let t1, t2 = !best_iv in
      (* Bit signature of the winning interval over the shared sample:
         selection uses it to measure how correlated two candidate
         functions actually are (identical bit patterns hash points
         into the same buckets no matter how good each looks alone). *)
      let words = Array.make ((s + 62) / 63) 0 in
      Array.iteri
        (fun k x ->
          if x >= t1 && x <= t2 then
            words.(k / 63) <- words.(k / 63) lor (1 lsl (k mod 63)))
        proj;
      Some (!best, { p1 = i; p2 = j; d12; t1; t2; spread }, words)
    end
  in
  let pairs = all_pairs m in
  let scored =
    Dbh_util.Pool.parallel_map_array ?pool ?cost:(dist.pair_cost pairs) score_pair pairs
  in
  let valid = ref [] in
  Array.iteri (fun idx -> function Some _ -> valid := idx :: !valid | None -> ()) scored;
  let valid = Array.of_list (List.rev !valid) in
  let chosen =
    match max_functions with
    | Some count when count < Array.length valid ->
        (* Queries pay one distance computation per distinct pivot their
           evaluated functions touch, so a family drawn from fewer,
           better pivots hashes strictly cheaper than a uniform draw
           over all m.  Rank pivots by the pair scores they support and
           restrict selection to the smallest strong subset that still
           offers ~1.2x [count] candidate pairs. *)
        let m_eff =
          let rec grow m' =
            if m' >= m || m' * (m' - 1) / 2 >= 6 * count / 5 then m' else grow (m' + 1)
          in
          grow 2
        in
        let allowed =
          if m_eff >= m then Array.make m true
          else begin
            (* A pivot is as strong as the best pairs it appears in:
               sum its top-5 pair scores so one lucky pair does not
               carry a pivot, then keep the strongest subset (growing
               it if filtering leaves fewer than [count] pairs). *)
            let per_pivot = Array.make m [] in
            Array.iter
              (fun idx ->
                let s, f, _ = Option.get scored.(idx) in
                per_pivot.(f.p1) <- s :: per_pivot.(f.p1);
                per_pivot.(f.p2) <- s :: per_pivot.(f.p2))
              valid;
            let strength =
              Array.map
                (fun scores ->
                  let sorted = List.sort (fun a b -> compare b a) scores in
                  let rec take n = function
                    | s :: tl when n > 0 && s > neg_infinity -> s +. take (n - 1) tl
                    | _ -> 0.
                  in
                  take 5 sorted)
                per_pivot
            in
            let order = Array.init m Fun.id in
            Array.sort
              (fun a b ->
                match compare strength.(b) strength.(a) with
                | 0 -> compare a b
                | c -> c)
              order;
            let allowed = Array.make m false in
            let available = ref 0 in
            let next = ref 0 in
            (* Admit pivots strongest-first until enough pairs survive. *)
            while !available < count && !next < m do
              let p = order.(!next) in
              allowed.(p) <- true;
              incr next;
              if !next >= m_eff then begin
                available := 0;
                Array.iter
                  (fun idx ->
                    let _, f, _ = Option.get scored.(idx) in
                    if allowed.(f.p1) && allowed.(f.p2) then incr available)
                  valid
              end
            done;
            allowed
          end
        in
        let valid =
          Array.of_seq
            (Seq.filter
               (fun idx ->
                 let _, f, _ = Option.get scored.(idx) in
                 allowed.(f.p1) && allowed.(f.p2))
               (Array.to_seq valid))
        in
        let by_score = Array.copy valid in
        Array.sort
          (fun a b ->
            let sa, _, _ = Option.get scored.(a) and sb, _, _ = Option.get scored.(b) in
            match compare sb sa with 0 -> compare a b | c -> c)
          by_score;
        (* Greedy selection discounted by measured redundancy: pure
           top-k concentrates on near-copies of the same few intervals
           — the tables stop being independent, buckets get heavy, and
           the (k, l) model overestimates accuracy while candidate
           sets balloon.  Each candidate's effective score is its raw
           score times (1 - rho), where rho is its strongest bit-level
           correlation with any function already kept:
           rho = |s - 2 * hamming(sig_a, sig_b)| / s, i.e. 0 for
           independent balanced bits and 1 for a duplicate (or exact
           complement).  Deterministic: ties break toward the higher
           raw score, then the lower pair index. *)
        let n = Array.length by_score in
        let target = min count n in
        let popcount x =
          let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
          go x 0
        in
        let correlation a b =
          let diff = ref 0 in
          Array.iteri (fun w wa -> diff := !diff + popcount (wa lxor b.(w))) a;
          Float.abs (float_of_int (s - (2 * !diff))) /. float_of_int (max 1 s)
        in
        let rho = Array.make n 0. in
        let picked = Array.make n false in
        let keep = Array.make target (-1) in
        for slot = 0 to target - 1 do
          let best_pos = ref (-1) and best_eff = ref neg_infinity in
          for pos = 0 to n - 1 do
            if not picked.(pos) then begin
              let sc, _, _ = Option.get scored.(by_score.(pos)) in
              (* A fully-correlated candidate is worthless even with a
                 top raw score (and 0 * infinity would poison the
                 comparison with a NaN). *)
              let eff = if rho.(pos) >= 1. then neg_infinity else sc *. (1. -. rho.(pos)) in
              if eff > !best_eff then begin
                best_eff := eff;
                best_pos := pos
              end
            end
          done;
          (* Every remaining candidate can be at -infinity (all exact
             duplicates of kept functions): fall back to the best raw
             score still available so the family reaches [count]. *)
          if !best_pos < 0 then begin
            let pos = ref 0 in
            while picked.(!pos) do incr pos done;
            best_pos := !pos
          end;
          let pos = !best_pos in
          picked.(pos) <- true;
          keep.(slot) <- by_score.(pos);
          let _, _, sig_p = Option.get scored.(by_score.(pos)) in
          for other = 0 to n - 1 do
            if not picked.(other) then begin
              let _, _, sig_o = Option.get scored.(by_score.(other)) in
              let c = correlation sig_p sig_o in
              if c > rho.(other) then rho.(other) <- c
            end
          done
        done;
        (* Emit in pair-enumeration order so function indices stay stable
           regardless of score ties. *)
        Array.sort compare keep;
        keep
    | _ -> valid
  in
  Array.map
    (fun idx ->
      let _, fn, _ = Option.get scored.(idx) in
      fn)
    chosen

(* ------------------------------------------------------------------ make *)

(* [m] distinct ids out of [n], or all of them when [m] is not smaller:
   the ids behind [Rng.subsample], drawn with its very draws. *)
let subsample_ids rng m n = if m >= n then Array.init n Fun.id else Rng.sample_indices rng m n

(* Fail fast on broken distance functions: quantiles, projections and
   keys silently corrupt on NaN or negative values.  Every distance a
   build computes passes here once, as it is computed. *)
let checked ~caller d =
  if Float.is_nan d || d < 0. then
    invalid_arg (caller ^ ": distance function returned NaN or a negative value");
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
let fit ?pool ~rng ~space ~pivots ~dist ~max_functions ~selector () =
  let m = Array.length pivots and s = Array.length dist.dist_sp.(0) in
  let fns =
    match (selector : Selector.t) with
    | Uniform strategy -> build_uniform ?pool ~rng ~m ~dist ~max_functions strategy
    | Density { grid } ->
        build_selected ?pool ~m ~dist ~s ~max_functions ~grid
          ~score_interval:(fun ~spread ~proj:_ ~sorted u iv -> density_score ~spread sorted u iv)
          ()
    | Neighbor { neighbors; grid } ->
        let nbrs = neighbor_lists ?pool ~dist_sp:dist.dist_sp ~m ~s neighbors in
        build_selected ?pool ~m ~dist ~s ~max_functions ~grid
          ~score_interval:(fun ~spread:_ ~proj ~sorted:_ _u iv ->
            disagreement_score ~nbrs proj iv)
          ()
  in
  if Array.length fns = 0 then
    invalid_arg "Hash_family.make: all pivot pairs are at distance 0";
  of_fns ~space ~pivots ~selector fns

(* Standalone: pays the m·s sample rows up front and each pivot pair's
   distance as its line is fit, nothing more. *)
let make ?pool ~rng ~space ?(num_pivots = 100) ?(threshold_sample = 500) ?max_functions
    ?(selector = Selector.default) data =
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
  fit ?pool ~rng ~space ~pivots ~dist ~max_functions ~selector ()

(* The same draws and the same fit as [make], over the whole data ×
   pivot table, paid for first: the sample's rows and every pivot pair's
   distance are already in it, so the fit pays nothing more. *)
let make_with_table ?pool ~rng ~space ~num_pivots ~threshold_sample ~max_functions ~selector
    data =
  let pivot_ids, pivots, sample_ids = draw ~rng ~num_pivots ~threshold_sample data in
  let table = distance_rows ?pool ~caller:"Hash_family.make" space pivots data in
  let dist =
    {
      dist_sp = by_pivot (Array.length pivots) (Array.map (Array.get table) sample_ids);
      d12 = (fun i j -> table.(pivot_ids.(i)).(j));
      pair_cost = (fun _ -> None);
    }
  in
  (fit ?pool ~rng ~space ~pivots ~dist ~max_functions ~selector (), table)

(* ----------------------------------------------------------- evaluation *)

type 'a cache = {
  obj : 'a;
  dists : float array;  (* nan = not yet computed *)
  mutable misses : int;
  mutable hits : int;
  mutable faulty : bool;  (* a distance paid so far was NaN or negative *)
  budget : Budget.t option;  (* charged before each uncached distance *)
  trace : Dbh_obs.Trace.t option;
}

let cache ?budget ?trace t obj =
  {
    obj;
    dists = Array.make (num_pivots t) nan;
    misses = 0;
    hits = 0;
    faulty = false;
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
  { obj; dists; misses = 0; hits = 0; faulty = false; budget; trace }

let cache_with_distances t obj dists =
  if Array.length dists <> num_pivots t then
    invalid_arg "Hash_family.cache_with_distances: wrong number of distances";
  (* A pivot-table row holds no NaN: every entry was checked when it was
     computed ([distance_rows]).  So [touch] never takes it for a miss,
     nothing writes to the row, and caches on any domain may share it. *)
  { obj; dists; misses = 0; hits = 0; faulty = false; budget = None; trace = None }

let pivot_table ?pool t objs =
  distance_rows ?pool ~caller:"Hash_family.pivot_table" t.space t.pivots objs

let cache_cost c = c.misses
let cache_hits c = c.hits

let check_cache ~caller c =
  if c.faulty then invalid_arg (caller ^ ": distance function returned NaN or a negative value")

(* Pay for pivot [i]'s distance (budget charge first), count the miss
   and trace it.  Out of line: misses are the rare case once a query's
   pivots are in. *)
let miss t c i =
  (match c.budget with Some b -> Budget.charge b | None -> ());
  let d = t.space.Space.distance c.obj t.pivots.(i) in
  if not (d >= 0.) then c.faulty <- true;
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

let write ~encode buf t =
  Binio.write_string buf format_tag;
  Binio.write_string buf (Selector.tag t.selector);
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
  (* v1 envelopes predate selectors: everything written before the
     Selector redesign was the paper's uniform construction. *)
  let selector =
    if tag = format_tag_v1 then Selector.default
    else if tag = format_tag then begin
      let sel_tag = Binio.read_string r in
      match Selector.of_tag sel_tag with
      | Some s -> s
      | None -> raise (Binio.Corrupt (Printf.sprintf "unknown selector tag %S" sel_tag))
    end
    else raise (Binio.Corrupt (Printf.sprintf "expected %s, found %S" format_tag tag))
  in
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
  { space; pivots; pairs; lines; spreads; selector }
