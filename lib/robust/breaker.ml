module Space = Dbh_space.Space
module Online = Dbh.Online
module Budget = Dbh.Budget
module Diagnostics = Dbh.Diagnostics

type state = Closed | Open | Half_open

type config = {
  window : int;
  anomaly_threshold : float;
  max_bucket_fraction : float;
  open_cooldown : int;
  half_open_probes : int;
}

let default_config =
  {
    window = 20;
    anomaly_threshold = 0.02;
    max_bucket_fraction = 0.5;
    open_cooldown = 20;
    half_open_probes = 10;
  }

type 'a t = {
  online : 'a Online.t;
  guard : Guard.t option;
  config : config;
  mutable state : state;
  mutable trips : int;
  mutable recoveries : int;
  mutable fallbacks : int;
  (* Closed: guard counters at the start of the current window. *)
  mutable window_queries : int;
  mutable window_calls0 : int;
  mutable window_anoms0 : int;
  (* Open: fallback queries left before attempting a rebuild. *)
  mutable cooldown_left : int;
  (* Half_open: probes left and guard counters at probing start. *)
  mutable probes_left : int;
  mutable probe_calls0 : int;
  mutable probe_anoms0 : int;
}

type 'a outcome = {
  result : 'a Online.result;
  served_by : [ `Index | `Linear_scan ];
  state_after : state;
}

let state t = t.state
let trips t = t.trips
let recoveries t = t.recoveries
let fallback_queries t = t.fallbacks

let pp_state ppf s =
  Format.pp_print_string ppf
    (match s with Closed -> "closed" | Open -> "open" | Half_open -> "half-open")

let guard_snapshot t =
  match t.guard with None -> (0, 0) | Some g -> (Guard.calls g, Guard.anomalies g)

(* Anomalies per distance evaluation since the given snapshot. *)
let rate_since t (calls0, anoms0) =
  match t.guard with
  | None -> 0.
  | Some g ->
      let dc = Guard.calls g - calls0 in
      let da = Guard.anomalies g - anoms0 in
      if dc <= 0 then 0. else float_of_int da /. float_of_int dc

let structurally_unhealthy t =
  Diagnostics.hierarchical_stats (Online.index t.online)
  |> Array.exists (fun (_, s) ->
         not (Diagnostics.healthy ~max_bucket_fraction:t.config.max_bucket_fraction s))

let begin_window t =
  t.window_queries <- 0;
  let calls, anoms = guard_snapshot t in
  t.window_calls0 <- calls;
  t.window_anoms0 <- anoms

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let record_state ?trace t =
  match trace with
  | Some tr ->
      Dbh_obs.Trace.record tr (Dbh_obs.Trace.Breaker_state { state = state_name t.state })
  | None -> ()

let record_counter pick =
  match Dbh_obs.Metrics.get () with
  | None -> ()
  | Some m -> Dbh_obs.Registry.inc (pick m)

let trip ?trace t =
  t.state <- Open;
  t.trips <- t.trips + 1;
  t.cooldown_left <- t.config.open_cooldown;
  record_counter (fun m -> m.Dbh_obs.Metrics.breaker_trips_total);
  record_state ?trace t

let create ?(config = default_config) ?guard online =
  if config.window < 1 then invalid_arg "Breaker.create: window must be >= 1";
  if config.open_cooldown < 1 then invalid_arg "Breaker.create: open_cooldown must be >= 1";
  if config.half_open_probes < 1 then
    invalid_arg "Breaker.create: half_open_probes must be >= 1";
  if
    Float.is_nan config.anomaly_threshold
    || config.anomaly_threshold < 0. || config.anomaly_threshold >= 1.
  then invalid_arg "Breaker.create: anomaly_threshold must be in [0,1)";
  let t =
    {
      online;
      guard;
      config;
      state = Closed;
      trips = 0;
      recoveries = 0;
      fallbacks = 0;
      window_queries = 0;
      window_calls0 = 0;
      window_anoms0 = 0;
      cooldown_left = 0;
      probes_left = 0;
      probe_calls0 = 0;
      probe_anoms0 = 0;
    }
  in
  begin_window t;
  t

(* Exact scan over the alive objects, through the (guarded) space: slow
   but structurally immune — bucket pollution cannot touch it, and under
   a Skip guard anomalous pairs simply rank last.  The scan still counts
   as a served query in the metrics (levels_probed 0 marks that the
   index was bypassed), so cost accounting covers degraded traffic. *)
let serve_linear ~opts t q =
  t.fallbacks <- t.fallbacks + 1;
  record_counter (fun m -> m.Dbh_obs.Metrics.breaker_fallback_queries_total);
  let budget = Option.map Budget.create opts.Dbh.Query_opts.budget in
  let trace = opts.Dbh.Query_opts.trace in
  let metrics = Dbh_obs.Metrics.resolve opts.Dbh.Query_opts.metrics in
  let t0 = match metrics with Some _ -> Dbh_obs.Metrics.now () | None -> 0. in
  let space = Online.space t.online in
  let best = ref None in
  let scanned = ref 0 in
  (try
     List.iter
       (fun h ->
         (match budget with Some b -> Budget.charge b | None -> ());
         incr scanned;
         let d = space.Space.distance q (Online.get t.online h) in
         match !best with
         | Some (_, bd) when bd <= d -> ()
         | _ -> best := Some (h, d))
       (Online.alive_handles t.online)
   with e when Budget.is_exhausted_exn e -> ());
  let truncated = match budget with Some b -> Budget.exhausted b | None -> false in
  (match trace with
  | Some tr ->
      Dbh_obs.Trace.record tr (Dbh_obs.Trace.Linear_fallback { scanned = !scanned })
  | None -> ());
  let stats = { Dbh.Index.hash_cost = 0; lookup_cost = !scanned; probes = 0 } in
  let seconds =
    match metrics with Some _ -> Some (Dbh_obs.Metrics.now () -. t0) | None -> None
  in
  Dbh.Index.observe_query ?metrics ?seconds ?nn_distance:(Option.map snd !best) ~stats
    ~truncated ~levels_probed:0 ();
  {
    result = { Online.nn = !best; stats; truncated; levels_probed = 0 };
    served_by = `Linear_scan;
    state_after = t.state;
  }

let breached t snapshot = rate_since t snapshot > t.config.anomaly_threshold

let rec search ?(opts = Dbh.Query_opts.default) t q =
  match t.state with
  | Closed ->
      let result = Online.search ~opts t.online q in
      t.window_queries <- t.window_queries + 1;
      if t.window_queries >= t.config.window then
        if breached t (t.window_calls0, t.window_anoms0) || structurally_unhealthy t then
          trip ?trace:opts.Dbh.Query_opts.trace t
        else begin_window t;
      { result; served_by = `Index; state_after = t.state }
  | Open ->
      if t.cooldown_left > 0 then begin
        t.cooldown_left <- t.cooldown_left - 1;
        serve_linear ~opts t q
      end
      else begin
        (* Cooldown over: refresh the index (its tables may be polluted
           by the anomalies that tripped us) and probe it.  A refresh
           the build rejects publishes nothing, so the old tables are
           not worth probing: stay Open for another cooldown. *)
        match Online.rebuild_now t.online with
        | exception Invalid_argument _ ->
            t.cooldown_left <- t.config.open_cooldown;
            record_counter (fun m -> m.Dbh_obs.Metrics.online_rebuild_failures_total);
            serve_linear ~opts t q
        | () ->
            t.state <- Half_open;
            record_state ?trace:opts.Dbh.Query_opts.trace t;
            t.probes_left <- t.config.half_open_probes;
            let calls, anoms = guard_snapshot t in
            t.probe_calls0 <- calls;
            t.probe_anoms0 <- anoms;
            search ~opts t q
      end
  | Half_open ->
      let result = Online.search ~opts t.online q in
      t.probes_left <- t.probes_left - 1;
      if t.probes_left <= 0 then
        if breached t (t.probe_calls0, t.probe_anoms0) || structurally_unhealthy t then
          trip ?trace:opts.Dbh.Query_opts.trace t
        else begin
          t.state <- Closed;
          t.recoveries <- t.recoveries + 1;
          record_counter (fun m -> m.Dbh_obs.Metrics.breaker_recoveries_total);
          record_state ?trace:opts.Dbh.Query_opts.trace t;
          begin_window t
        end;
      { result; served_by = `Index; state_after = t.state }

let search_batch ?opts t qs =
  (* Sequential on purpose: every query may advance the breaker's state
     machine, and transitions must observe queries in order — the
     outcome sequence is identical to calling {search} in a loop. *)
  Array.map (fun q -> search ?opts t q) qs
