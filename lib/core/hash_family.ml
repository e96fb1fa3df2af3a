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

type 'a t = {
  space : 'a Space.t;
  pivots : 'a array;
  fns : binary_fn array;
  selector : Selector.t;
}

let space t = t.space
let size t = Array.length t.fns
let num_pivots t = Array.length t.pivots
let pivots t = t.pivots
let fn t i = t.fns.(i)
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

(* ------------------------------------------------- uniform construction *)

(* The paper's data-oblivious path, kept bit-identical to the
   pre-selector builds: pairs are either all of C(m,2) or drawn from
   [rng] by rejection, and thresholds consume [rng] sequentially in pair
   order for every pool size. *)
let build_uniform ?pool ~rng ~space ~pivots ~dist_sp ~s ~max_functions strategy =
  let m = Array.length pivots in
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
    let d12 = space.Space.distance pivots.(i) pivots.(j) in
    if not (d12 > 0.) then None
    else begin
      let sorted =
        Array.init s (fun k ->
            Projection.project_with ~d1:dist_sp.(i).(k) ~d2:dist_sp.(j).(k) ~d12)
      in
      Array.sort compare sorted;
      Some (pair, d12, sorted)
    end
  in
  Dbh_util.Pool.map_reduce_chunks ?pool ?cost:(pair_cost space pivots pairs)
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
   (spread covers half the mass, so bulk spacing ~ 2·spread/n).  Under an
   observed distance scale δ (re-tuning), a gap is scored against δ
   directly and saturates at 4δ — beyond "no near pair straddles the
   boundary", sparser buys nothing. *)
let boundary_sparsity ~scale ~spread ~n sorted u t =
  if Float.abs t = infinity then infinity
  else
    let gap = local_gap sorted u in
    match scale with
    | None -> gap *. float_of_int n /. (2. *. spread)
    | Some delta -> Float.min (gap /. delta) 4.

(* Score one candidate interval for the density-sensitive selector: the
   sparsity of its worst finite boundary (both boundaries must be hard to
   straddle).  Intervals with no finite boundary accept everything and
   score lowest. *)
let density_score ~scale ~spread sorted u (t1, t2) =
  let n = Array.length sorted in
  let s1 = boundary_sparsity ~scale ~spread ~n sorted u t1 in
  let s2 = boundary_sparsity ~scale ~spread ~n sorted (u +. 0.5) t2 in
  let s = Float.min s1 s2 in
  if s = infinity then neg_infinity else s

(* Approximate k-nearest-neighbor lists within the construction sample,
   using the pivot-embedding lower bound
   max_p |D(p,x_i) − D(p,x_j)| ≤ D(x_i,x_j) over a pivot prefix — free:
   dist_sp is already paid for.  With an observed distance scale δ the
   neighborhood adapts to live traffic: all sample points within δ
   (clamped to [1, 2k]). *)
let neighbor_lists ?pool ~dist_sp ~m ~s ~scale k =
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
    let k_eff =
      match scale with
      | None -> k
      | Some delta ->
          let within = ref 0 in
          Array.iter (fun (d, _) -> if d <= delta then incr within) cand;
          max 1 (min !within (2 * k))
    in
    Array.init (min k_eff (s - 1)) (fun r -> snd cand.(r))
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
let build_selected ?pool ~space ~pivots ~dist_sp ~s ~max_functions ~grid ~score_interval () =
  let m = Array.length pivots in
  (match max_functions with
  | Some count when count < 1 -> invalid_arg "Hash_family.make: max_functions must be positive"
  | _ -> ());
  let offsets = grid_offsets grid in
  let score_pair (i, j) =
    let d12 = space.Space.distance pivots.(i) pivots.(j) in
    if not (d12 > 0.) then None
    else begin
      let proj =
        Array.init s (fun k ->
            Projection.project_with ~d1:dist_sp.(i).(k) ~d2:dist_sp.(j).(k) ~d12)
      in
      let sorted = Array.copy proj in
      Array.sort compare sorted;
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
    Dbh_util.Pool.parallel_map_array ?pool ?cost:(pair_cost space pivots pairs) score_pair
      pairs
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

let build ?pool ~rng ~space ~num_pivots ~threshold_sample ~max_functions ~selector ~scale data
    =
  if Array.length data < 2 then invalid_arg "Hash_family.make: need at least 2 objects";
  if num_pivots < 2 then invalid_arg "Hash_family.make: need at least 2 pivots";
  let pivots = Rng.subsample rng num_pivots data in
  let m = Array.length pivots in
  let sample = Rng.subsample rng threshold_sample data in
  let s = Array.length sample in
  (* Pivot-sample distance matrix, shared across all pairs.  Rows are
     independent, so a pool computes them in parallel; values (and the
     NaN/negative validation) are identical either way. *)
  let dist_sp = Array.make_matrix m s 0. in
  let fill_row p =
    for i = 0 to s - 1 do
      let d = space.Space.distance sample.(i) pivots.(p) in
      (* Fail fast on broken distance functions: downstream quantiles and
         projections silently corrupt on NaN or negative values. *)
      if Float.is_nan d || d < 0. then
        invalid_arg "Hash_family.make: distance function returned NaN or a negative value";
      dist_sp.(p).(i) <- d
    done
  in
  (* Row [p] computes the same [s] sample distances whatever [p] is, so
     only the pivot's own length differentiates row costs. *)
  Dbh_util.Pool.parallel_for ?pool ?cost:(Space.cost_estimator space pivots) m fill_row;
  let fns =
    match (selector : Selector.t) with
    | Uniform strategy ->
        build_uniform ?pool ~rng ~space ~pivots ~dist_sp ~s ~max_functions strategy
    | Density { grid } ->
        build_selected ?pool ~space ~pivots ~dist_sp ~s ~max_functions ~grid
          ~score_interval:(fun ~spread ~proj:_ ~sorted u iv ->
            density_score ~scale ~spread sorted u iv)
          ()
    | Neighbor { neighbors; grid } ->
        let nbrs = neighbor_lists ?pool ~dist_sp ~m ~s ~scale neighbors in
        build_selected ?pool ~space ~pivots ~dist_sp ~s ~max_functions ~grid
          ~score_interval:(fun ~spread:_ ~proj ~sorted:_ _u iv ->
            disagreement_score ~nbrs proj iv)
          ()
  in
  if Array.length fns = 0 then
    invalid_arg "Hash_family.make: all pivot pairs are at distance 0";
  { space; pivots; fns; selector }

let make ?pool ~rng ~space ?(num_pivots = 100) ?(threshold_sample = 500) ?max_functions
    ?(selector = Selector.default) data =
  build ?pool ~rng ~space ~num_pivots ~threshold_sample ~max_functions ~selector ~scale:None
    data

(* --------------------------------------------------------------- retune *)

type observations = {
  nn_distance_strata : (float * int) array;
  table_hit_rate : float;
}

let no_observations = { nn_distance_strata = [||]; table_hit_rate = 0. }

let observed_scale obs =
  let strata =
    Array.to_list obs.nn_distance_strata
    |> List.filter (fun (d, c) -> c > 0 && d > 0. && Float.is_finite d)
  in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 strata in
  if total = 0 then None
  else begin
    (* Weighted median of the observed D(Q,N(Q)) strata. *)
    let sorted = List.sort compare strata in
    let half = (total + 1) / 2 in
    let rec walk acc = function
      | [] -> None
      | (d, c) :: rest -> if acc + c >= half then Some d else walk (acc + c) rest
    in
    walk 0 sorted
  end

let observations_of_metrics (m : Dbh_obs.Metrics.t) =
  let module R = Dbh_obs.Registry in
  let buckets = R.histogram_buckets m.Dbh_obs.Metrics.query_nn_distance in
  let strata = ref [] in
  let prev_bound = ref 0. in
  Array.iter
    (fun (upper, count) ->
      if count > 0 then begin
        (* Representative distance for the stratum: the bucket midpoint,
           or an extrapolation for the open-ended +inf bucket. *)
        let d =
          if Float.is_finite upper then (!prev_bound +. upper) /. 2. else !prev_bound *. 2.
        in
        if d > 0. then strata := (d, count) :: !strata
      end;
      if Float.is_finite upper then prev_bound := upper)
    buckets;
  let probes = R.counter_value m.Dbh_obs.Metrics.bucket_probes_total in
  let looked = R.counter_value m.Dbh_obs.Metrics.lookup_distance_computations_total in
  {
    nn_distance_strata = Array.of_list (List.rev !strata);
    table_hit_rate = (if probes <= 0 then 0. else float_of_int looked /. float_of_int probes);
  }

let retune ?pool ~rng ?num_pivots ?threshold_sample ?max_functions ?selector ~observations t
    data =
  let selector = Option.value selector ~default:t.selector in
  let num_pivots = Option.value num_pivots ~default:(Array.length t.pivots) in
  let threshold_sample = Option.value threshold_sample ~default:500 in
  build ?pool ~rng ~space:t.space ~num_pivots ~threshold_sample ~max_functions ~selector
    ~scale:(observed_scale observations) data

(* ----------------------------------------------------------- evaluation *)

type 'a cache = {
  obj : 'a;
  dists : float array;  (* nan = not yet computed *)
  mutable misses : int;
  mutable hits : int;
  budget : Budget.t option;  (* charged before each uncached distance *)
  trace : Dbh_obs.Trace.t option;
}

let cache ?budget ?trace t obj =
  { obj; dists = Array.make (num_pivots t) nan; misses = 0; hits = 0; budget; trace }

(* Like [cache], but over a caller-owned workspace row (e.g. a query
   scratch) so repeated queries allocate no distance array.  The row may
   be longer than the pivot count; it is re-initialised here, so a dirty
   row from a previous query is fine. *)
let cache_in ?budget ?trace t ~dists obj =
  if Array.length dists < num_pivots t then
    invalid_arg "Hash_family.cache_in: workspace shorter than pivot count";
  Array.fill dists 0 (Array.length dists) nan;
  { obj; dists; misses = 0; hits = 0; budget; trace }

let cache_with_distances t obj dists =
  if Array.length dists <> num_pivots t then
    invalid_arg "Hash_family.cache_with_distances: wrong number of distances";
  (* The row is only read (no nan entries), so sharing it is safe. *)
  { obj; dists; misses = 0; hits = 0; budget = None; trace = None }

let pivot_table ?pool t objs =
  let row obj = Array.map (fun p -> t.space.Space.distance obj p) t.pivots in
  Dbh_util.Pool.parallel_map_array ?pool ?cost:(Space.cost_estimator t.space objs) row objs

let cache_cost c = c.misses
let cache_hits c = c.hits

(* Make pivot [i]'s distance present in the cache, paying for it on a
   miss (budget charge first) and counting/tracing the lookup either
   way.  Returns unit so callers read [c.dists.(i)] unboxed. *)
let touch t c i =
  if Float.is_nan c.dists.(i) then begin
    (match c.budget with Some b -> Budget.charge b | None -> ());
    c.dists.(i) <- t.space.Space.distance c.obj t.pivots.(i);
    c.misses <- c.misses + 1;
    match c.trace with
    | Some tr -> Dbh_obs.Trace.record tr (Dbh_obs.Trace.Pivot_miss { pivot = i })
    | None -> ()
  end
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
  let f = t.fns.(i) in
  let d1 = pivot_distance t c f.p1 in
  let d2 = pivot_distance t c f.p2 in
  Projection.project_with ~d1 ~d2 ~d12:f.d12

let eval t c i =
  let f = t.fns.(i) in
  let v = project t c i in
  v >= f.t1 && v <= f.t2

let margin t c i =
  let f = t.fns.(i) in
  let v = project t c i in
  let to_t1 = if f.t1 = neg_infinity then infinity else Float.abs (v -. f.t1) in
  let to_t2 = if f.t2 = infinity then infinity else Float.abs (v -. f.t2) in
  Float.min to_t1 to_t2 /. f.spread

let eval_direct t obj i =
  let f = t.fns.(i) in
  let d1 = t.space.Space.distance obj t.pivots.(f.p1) in
  let d2 = t.space.Space.distance obj t.pivots.(f.p2) in
  let v = Projection.project_with ~d1 ~d2 ~d12:f.d12 in
  v >= f.t1 && v <= f.t2

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
  let dists = c.dists and fns = t.fns and cells = row.cells in
  for j = 0 to Array.length fn_ids - 1 do
    let i = fn_ids.(j) in
    if Bytes.get cells i = unknown then begin
      let f = fns.(i) in
      touch t c f.p1;
      touch t c f.p2;
      let d1 = dists.(f.p1) and d2 = dists.(f.p2) and d12 = f.d12 in
      (* [Projection.project_with], spelled out: a call across the module
         boundary would box both distances and the result. *)
      let v = ((d1 *. d1) +. (d12 *. d12) -. (d2 *. d2)) /. (2. *. d12) in
      Bytes.unsafe_set cells i (if v >= f.t1 && v <= f.t2 then '\001' else '\000')
    end
  done

let sample_fn_indices ~rng t n =
  if n < 0 then invalid_arg "Hash_family.sample_fn_indices: negative count";
  Array.init n (fun _ -> Rng.int rng (size t))

let signature t ~fn_indices obj =
  let c = cache t obj in
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
  Binio.write_int buf (Array.length t.fns);
  Array.iter
    (fun f ->
      Binio.write_int buf f.p1;
      Binio.write_int buf f.p2;
      Binio.write_float buf f.d12;
      Binio.write_float buf f.t1;
      Binio.write_float buf f.t2;
      Binio.write_float buf f.spread)
    t.fns

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
  if num_fns < 0 || num_fns > Binio.remaining r then
    raise (Binio.Corrupt "implausible function count");
  let fns =
    Array.init num_fns (fun _ ->
        let p1 = Binio.read_int r in
        let p2 = Binio.read_int r in
        let d12 = Binio.read_float r in
        let t1 = Binio.read_float r in
        let t2 = Binio.read_float r in
        let spread = Binio.read_float r in
        if p1 < 0 || p1 >= num_pivots || p2 < 0 || p2 >= num_pivots then
          raise (Binio.Corrupt "pivot index out of range");
        { p1; p2; d12; t1; t2; spread })
  in
  { space; pivots; fns; selector }
