(* Tests for the hardened query pipeline: Guard (distance validation),
   Faulty_space (deterministic fault injection), Budget (per-query
   distance budgets) and Breaker (circuit breaker with linear-scan
   fallback). *)

module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Builder = Dbh.Builder
module Online = Dbh.Online
module Budget = Dbh.Budget
module Guard = Dbh_robust.Guard
module Faulty_space = Dbh_robust.Faulty_space
module Breaker = Dbh_robust.Breaker

let l2 = Minkowski.l2_space

let small_config =
  { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:4 n in
  db

(* A space whose behavior is selected by the first argument, to hit every
   anomaly class deterministically. *)
let toy_space =
  Space.make ~name:"toy" (fun a (_ : int) ->
      match a with
      | 0 -> Float.nan
      | 1 -> infinity
      | 2 -> neg_infinity
      | 3 -> -2.
      | 4 -> failwith "toy blew up"
      | _ -> 1.)

(* ------------------------------------------------------------------ Guard *)

let test_guard_passthrough () =
  let g, t = Guard.wrap l2 in
  let x = [| 0.; 0.; 0.; 0. |] and y = [| 3.; 4.; 0.; 0. |] in
  Alcotest.(check (float 1e-12)) "clean distance untouched" 5. (g.Space.distance x y);
  Alcotest.(check int) "calls counted" 1 (Guard.calls t);
  Alcotest.(check int) "no anomalies" 0 (Guard.anomalies t);
  Alcotest.(check bool) "name marked" true (g.Space.name = "guarded:" ^ l2.Space.name)

let test_guard_skip_policy () =
  let g, t = Guard.wrap ~policy:Guard.Skip toy_space in
  List.iter
    (fun a ->
      Alcotest.(check (float 0.)) "anomaly becomes +inf" infinity (g.Space.distance a 0))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check (float 1e-12)) "clean passes" 1. (g.Space.distance 9 0);
  Alcotest.(check int) "calls" 6 (Guard.calls t);
  Alcotest.(check int) "anomalies" 5 (Guard.anomalies t);
  List.iter
    (fun kind -> Alcotest.(check int) (Guard.anomaly_name kind) 1 (Guard.count t kind))
    [ Guard.Nan; Guard.Pos_infinite; Guard.Neg_infinite; Guard.Negative; Guard.Exn ];
  Alcotest.(check (float 1e-9)) "rate" (5. /. 6.) (Guard.anomaly_rate t);
  Guard.reset t;
  Alcotest.(check int) "reset calls" 0 (Guard.calls t);
  Alcotest.(check int) "reset anomalies" 0 (Guard.anomalies t)

let test_guard_clamp_policy () =
  let g, _ = Guard.wrap ~policy:Guard.Clamp toy_space in
  Alcotest.(check (float 0.)) "nan -> +inf" infinity (g.Space.distance 0 0);
  Alcotest.(check (float 0.)) "+inf -> +inf" infinity (g.Space.distance 1 0);
  Alcotest.(check (float 0.)) "-inf -> 0" 0. (g.Space.distance 2 0);
  Alcotest.(check (float 0.)) "negative -> 0" 0. (g.Space.distance 3 0);
  Alcotest.(check (float 0.)) "exn -> +inf" infinity (g.Space.distance 4 0)

let test_guard_raise_policy () =
  let g, t = Guard.wrap ~policy:Guard.Raise toy_space in
  List.iter
    (fun a ->
      let raised =
        try
          ignore (g.Space.distance a 0);
          false
        with Guard.Invalid_distance _ -> true
      in
      Alcotest.(check bool) "raises Invalid_distance" true raised)
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "still tallied" 5 (Guard.anomalies t);
  Alcotest.(check (float 1e-12)) "clean still passes" 1. (g.Space.distance 9 0)

let test_guard_lets_budget_exhaustion_through () =
  (* Budget exhaustion raised below the guard (e.g. a budgeted space
     wrapper) must not be swallowed as a distance anomaly. *)
  let broke = Space.make ~name:"budgeted" (fun (_ : int) (_ : int) -> raise Budget.Exhausted) in
  let g, t = Guard.wrap ~policy:Guard.Skip broke in
  let raised = try ignore (g.Space.distance 0 0); false with Budget.Exhausted -> true in
  Alcotest.(check bool) "Exhausted propagates" true raised;
  Alcotest.(check int) "not counted as anomaly" 0 (Guard.anomalies t)

let test_guard_pp () =
  let g, t = Guard.wrap ~policy:Guard.Skip toy_space in
  ignore (g.Space.distance 0 0);
  ignore (g.Space.distance 9 0);
  let text = Format.asprintf "%a" Guard.pp t in
  Alcotest.(check bool) "mentions calls" true
    (String.length text > 0 && String.sub text 0 6 = "calls=")

(* ----------------------------------------------------------- Faulty_space *)

let classify space x y =
  match space.Space.distance x y with
  | d when Float.is_nan d -> `Nan
  | d when d < 0. -> `Negative
  | d -> `Value d
  | exception Faulty_space.Injected _ -> `Exn

let test_faulty_deterministic () =
  let cfg = Faulty_space.faults ~nan:0.1 ~exn_:0.05 ~negative:0.05 ~perturb:0.1 () in
  let run seed =
    let f, t = Faulty_space.wrap ~rng:(Rng.create seed) ~config:cfg l2 in
    let x = [| 0.; 0.; 0.; 0. |] and y = [| 1.; 0.; 0.; 0. |] in
    (Array.init 500 (fun _ -> classify f x y), t)
  in
  let a, ta = run 7 and b, tb = run 7 in
  Alcotest.(check bool) "same fault pattern at same seed" true (a = b);
  Alcotest.(check int) "same nan count" (Faulty_space.injected_nan ta)
    (Faulty_space.injected_nan tb);
  Alcotest.(check int) "same exn count" (Faulty_space.injected_exn ta)
    (Faulty_space.injected_exn tb);
  Alcotest.(check bool) "faults actually injected" true (Faulty_space.injected ta > 0);
  let c, _ = run 8 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_faulty_config_change_keeps_alignment () =
  (* Fault draws depend only on (pair, occurrence), never on the live
     configuration, so flipping the config mid-run leaves later faults
     identical to a space that had the config from the start. *)
  let cfg = Faulty_space.faults ~nan:0.1 ~exn_:0.05 ~negative:0.05 () in
  let x = [| 0.; 0.; 0.; 0. |] and y = [| 1.; 0.; 0.; 0. |] in
  let always, _ = Faulty_space.wrap ~rng:(Rng.create 9) ~config:cfg l2 in
  let toggled, handle = Faulty_space.wrap ~rng:(Rng.create 9) l2 in
  let a = Array.init 300 (fun _ -> classify always x y) in
  for _ = 1 to 100 do
    Alcotest.(check bool) "quiet space is clean" true (classify toggled x y = `Value 1.)
  done;
  Faulty_space.set_config handle cfg;
  for i = 100 to 299 do
    Alcotest.(check bool)
      (Printf.sprintf "call %d aligned" i)
      true
      (classify toggled x y = a.(i))
  done

let test_faulty_validation () =
  let bad = { Faulty_space.quiet with Faulty_space.nan_prob = 1.5 } in
  Alcotest.(check bool) "wrap rejects bad prob" true
    (try
       ignore (Faulty_space.wrap ~rng:(Rng.create 1) ~config:bad l2);
       false
     with Invalid_argument _ -> true);
  let _, t = Faulty_space.wrap ~rng:(Rng.create 1) l2 in
  Alcotest.(check bool) "set_config rejects bad prob" true
    (try
       Faulty_space.set_config t bad;
       false
     with Invalid_argument _ -> true)

let test_faulty_disable () =
  let cfg = Faulty_space.faults ~nan:1.0 () in
  let f, t = Faulty_space.wrap ~rng:(Rng.create 11) ~config:cfg l2 in
  let x = [| 0.; 0.; 0.; 0. |] in
  Alcotest.(check bool) "nan while enabled" true (classify f x x = `Nan);
  Faulty_space.disable t;
  Alcotest.(check bool) "clean after disable" true (classify f x x = `Value 0.);
  Alcotest.(check bool) "counters kept" true (Faulty_space.injected_nan t = 1)

(* ----------------------------------------------------------------- Budget *)

let test_budget_basics () =
  Alcotest.check_raises "negative limit" (Invalid_argument "Budget.create: negative limit")
    (fun () -> ignore (Budget.create (-1)));
  let b = Budget.create 3 in
  Alcotest.(check int) "limit" 3 (Budget.limit b);
  Alcotest.(check int) "spent" 0 (Budget.spent b);
  Budget.charge b;
  Budget.charge b;
  Budget.charge b;
  Alcotest.(check int) "all spent" 0 (Budget.remaining b);
  Alcotest.(check bool) "no refusal yet" false (Budget.exhausted b);
  let raised = try Budget.charge b; false with Budget.Exhausted -> true in
  Alcotest.(check bool) "fourth charge refused" true raised;
  Alcotest.(check bool) "now exhausted" true (Budget.exhausted b);
  Alcotest.(check int) "spend unchanged by refusal" 3 (Budget.spent b);
  let zero = Budget.create 0 in
  let raised = try Budget.charge zero; false with Budget.Exhausted -> true in
  Alcotest.(check bool) "zero budget refuses immediately" true raised;
  Alcotest.(check bool) "recognizer" true (Budget.is_exhausted_exn Budget.Exhausted);
  Alcotest.(check bool) "recognizer negative" false (Budget.is_exhausted_exn Not_found)

let test_index_query_budget () =
  (* Over randomized workloads the query never spends more distance
     evaluations than the budget allows, and [truncated] is set exactly
     when a charge was refused. *)
  let db = test_db 61 400 in
  let counted, counter = Space.with_counter l2 in
  let rng = Rng.create 62 in
  let family =
    Dbh.Hash_family.make ~rng ~space:counted ~num_pivots:20 ~threshold_sample:150 db
  in
  let index = Dbh.Index.build ~rng ~family ~db ~k:4 ~l:8 () in
  let qrng = Rng.create 63 in
  for _ = 1 to 100 do
    let q = Dbh_datasets.Vectors.perturb ~rng:qrng ~sigma:0.1 db.(Rng.int qrng 400) in
    let limit = 1 + Rng.int qrng 40 in
    Space.reset counter;
    let r = Dbh.Index.search ~opts:(Dbh.Query_opts.budgeted limit) index q in
    let cost = Dbh.Index.total_cost r.Dbh.Index.stats in
    Alcotest.(check bool)
      (Printf.sprintf "spend %d within limit %d" (Space.count counter) limit)
      true
      (Space.count counter <= limit);
    Alcotest.(check int) "every charge backed a real evaluation" cost (Space.count counter);
    if r.Dbh.Index.truncated then
      Alcotest.(check int) "truncated only once the limit is spent" limit cost;
    if not r.Dbh.Index.truncated then begin
      let full = Dbh.Index.search index q in
      Alcotest.(check bool) "untruncated answer equals unbudgeted" true
        (full.Dbh.Index.nn = r.Dbh.Index.nn);
      Alcotest.(check bool) "untruncated stats equal unbudgeted" true
        (full.Dbh.Index.stats = r.Dbh.Index.stats)
    end
  done

let test_hierarchical_query_budget () =
  let db = test_db 71 400 in
  let counted, counter = Space.with_counter l2 in
  let rng = Rng.create 72 in
  let prepared = Builder.prepare ~rng ~space:counted ~config:small_config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config:small_config () in
  let qrng = Rng.create 73 in
  for _ = 1 to 60 do
    let q = Dbh_datasets.Vectors.perturb ~rng:qrng ~sigma:0.1 db.(Rng.int qrng 400) in
    let limit = 1 + Rng.int qrng 60 in
    Space.reset counter;
    let r = Dbh.Hierarchical.search ~opts:(Dbh.Query_opts.budgeted limit) h q in
    let cost = Dbh.Index.total_cost r.Dbh.Index.stats in
    Alcotest.(check bool) "spend within limit" true (Space.count counter <= limit);
    Alcotest.(check int) "every charge backed a real evaluation" cost (Space.count counter);
    if r.Dbh.Index.truncated then
      Alcotest.(check int) "truncated only once the limit is spent" limit cost;
    if not r.Dbh.Index.truncated then begin
      let full = Dbh.Hierarchical.search h q in
      Alcotest.(check bool) "untruncated = unbudgeted" true (full.Dbh.Index.nn = r.Dbh.Index.nn);
      Alcotest.(check bool) "untruncated stats = unbudgeted" true
        (full.Dbh.Index.stats = r.Dbh.Index.stats)
    end
  done

let test_online_query_budget () =
  let db = test_db 81 300 in
  let counted, counter = Space.with_counter l2 in
  let t = Online.create ~rng:(Rng.create 82) ~space:counted ~config:small_config
      ~target_accuracy:0.9 db
  in
  let qrng = Rng.create 83 in
  let tight_truncated = ref 0 in
  for _ = 1 to 30 do
    let q = Dbh_datasets.Vectors.perturb ~rng:qrng ~sigma:0.1 db.(Rng.int qrng 300) in
    Space.reset counter;
    let r = Online.search ~opts:(Dbh.Query_opts.budgeted 5) t q in
    let cost = Dbh.Index.total_cost r.Online.stats in
    Alcotest.(check bool) "spend within tight limit" true (Space.count counter <= 5);
    Alcotest.(check int) "every charge backed a real evaluation" cost (Space.count counter);
    if r.Online.truncated then begin
      Alcotest.(check int) "truncated only once the limit is spent" 5 cost;
      incr tight_truncated
    end;
    let r' = Online.search ~opts:(Dbh.Query_opts.budgeted 1_000_000) t q in
    Alcotest.(check bool) "huge budget never truncates" false r'.Online.truncated;
    let full = Online.search t q in
    Alcotest.(check bool) "huge budget = unbudgeted" true (full.Online.nn = r'.Online.nn);
    Alcotest.(check bool) "huge budget stats = unbudgeted" true
      (full.Online.stats = r'.Online.stats)
  done;
  Alcotest.(check bool) "tight budget truncates sometimes" true (!tight_truncated > 0)

(* ---------------------------------------------------------------- Breaker *)

let breaker_config =
  {
    Breaker.window = 10;
    anomaly_threshold = 0.02;
    max_bucket_fraction = 0.5;
    open_cooldown = 10;
    half_open_probes = 5;
  }

let test_breaker_validation () =
  let db = test_db 91 100 in
  let online =
    Online.create ~rng:(Rng.create 92) ~space:l2 ~config:small_config ~target_accuracy:0.9 db
  in
  Alcotest.check_raises "window" (Invalid_argument "Breaker.create: window must be >= 1")
    (fun () -> ignore (Breaker.create ~config:{ breaker_config with Breaker.window = 0 } online))

(* Acceptance scenario from the issue: with 5% NaN + 1% exceptions at a
   fixed seed, a Guard(Skip)-wrapped index completes a 200-query workload
   with zero crashes, reports non-zero anomaly counters, demonstrably
   trips to linear scan, and recovers once the faults stop. *)
let test_breaker_trip_and_recover () =
  let db = test_db 101 300 in
  let faulty, faults = Faulty_space.wrap ~rng:(Rng.create 102) l2 in
  let guarded, guard = Guard.wrap ~policy:Guard.Skip faulty in
  let online =
    Online.create ~rng:(Rng.create 103) ~space:guarded ~config:small_config
      ~target_accuracy:0.9 db
  in
  let breaker = Breaker.create ~config:breaker_config ~guard online in
  let qrng = Rng.create 104 in
  let next_query () = Dbh_datasets.Vectors.perturb ~rng:qrng ~sigma:0.1 db.(Rng.int qrng 300) in
  (* Healthy phase: everything through the index, breaker stays closed. *)
  for _ = 1 to 20 do
    let out = Breaker.search breaker (next_query ()) in
    Alcotest.(check bool) "healthy served by index" true (out.Breaker.served_by = `Index)
  done;
  Alcotest.(check int) "no trips while healthy" 0 (Breaker.trips breaker);
  Alcotest.(check bool) "closed while healthy" true (Breaker.state breaker = Breaker.Closed);
  (* Fault phase: 200 queries under 5% NaN + 1% exceptions. *)
  Faulty_space.set_config faults (Faulty_space.faults ~nan:0.05 ~exn_:0.01 ());
  let linear = ref 0 and answered = ref 0 in
  for _ = 1 to 200 do
    let out = Breaker.search breaker (next_query ()) in
    (match out.Breaker.served_by with `Linear_scan -> incr linear | `Index -> ());
    if out.Breaker.result.Online.nn <> None then incr answered
  done;
  Alcotest.(check bool) "anomaly counters non-zero" true (Guard.anomalies guard > 0);
  Alcotest.(check bool) "nan anomalies seen" true (Guard.count guard Guard.Nan > 0);
  Alcotest.(check bool) "exn anomalies seen" true (Guard.count guard Guard.Exn > 0);
  Alcotest.(check bool) "breaker tripped" true (Breaker.trips breaker >= 1);
  Alcotest.(check bool) "linear fallback served queries" true (!linear > 0);
  Alcotest.(check int) "fallback counter agrees" !linear (Breaker.fallback_queries breaker);
  Alcotest.(check bool)
    (Printf.sprintf "answered %d/200 under faults" !answered)
    true (!answered > 150);
  (* Recovery phase: faults stop; the breaker must close again. *)
  Faulty_space.disable faults;
  let recovered = ref false and steps = ref 0 in
  while (not !recovered) && !steps < 200 do
    incr steps;
    ignore (Breaker.search breaker (next_query ()));
    if Breaker.state breaker = Breaker.Closed then recovered := true
  done;
  Alcotest.(check bool) "recovered to closed" true !recovered;
  Alcotest.(check bool) "recovery counted" true (Breaker.recoveries breaker >= 1);
  Alcotest.(check bool) "fault-triggered rebuild happened" true (Online.rebuilds online >= 1);
  (* Handles stayed stable across the fault-triggered rebuilds. *)
  for h = 0 to 19 do
    Alcotest.(check (array (float 0.))) "handle stable across rebuild" db.(h)
      (Online.get online h)
  done;
  (* And post-recovery retrieval is exact again. *)
  match (Breaker.search breaker db.(7)).Breaker.result.Online.nn with
  | Some (h, d) ->
      Alcotest.(check int) "self query finds itself" 7 h;
      Alcotest.(check (float 1e-9)) "zero distance" 0. d
  | None -> Alcotest.fail "recovered index must answer"

let test_breaker_fallback_budget_and_exactness () =
  let db = test_db 111 200 in
  let faulty, faults = Faulty_space.wrap ~rng:(Rng.create 112) l2 in
  let guarded, guard = Guard.wrap faulty in
  let online =
    Online.create ~rng:(Rng.create 113) ~space:guarded ~config:small_config
      ~target_accuracy:0.9 db
  in
  let cfg = { breaker_config with Breaker.window = 5 } in
  let breaker = Breaker.create ~config:cfg ~guard online in
  let qrng = Rng.create 114 in
  let next_query () = Dbh_datasets.Vectors.perturb ~rng:qrng ~sigma:0.1 db.(Rng.int qrng 200) in
  (* Saturate with NaN until the breaker opens. *)
  Faulty_space.set_config faults (Faulty_space.faults ~nan:0.9 ());
  let steps = ref 0 in
  while Breaker.state breaker <> Breaker.Open && !steps < 50 do
    incr steps;
    ignore (Breaker.search breaker (next_query ()))
  done;
  Alcotest.(check bool) "breaker open" true (Breaker.state breaker = Breaker.Open);
  Faulty_space.disable faults;
  (* The fallback honors per-query budgets. *)
  let out = Breaker.search ~opts:(Dbh.Query_opts.make ~budget:7 ()) breaker (next_query ()) in
  Alcotest.(check bool) "served by fallback" true (out.Breaker.served_by = `Linear_scan);
  Alcotest.(check bool) "truncated" true out.Breaker.result.Online.truncated;
  Alcotest.(check bool) "within budget" true
    (out.Breaker.result.Online.stats.Dbh.Index.lookup_cost <= 7);
  (* And, unbudgeted, it is exact: same nearest distance as brute force. *)
  let probe = next_query () in
  let out = Breaker.search breaker probe in
  (match out.Breaker.served_by with
  | `Linear_scan -> ()
  | `Index -> Alcotest.fail "expected fallback while open");
  let best = Array.fold_left (fun acc x -> Float.min acc (Minkowski.l2 probe x)) infinity db in
  match out.Breaker.result.Online.nn with
  | Some (_, d) -> Alcotest.(check (float 1e-9)) "fallback is exact" best d
  | None -> Alcotest.fail "fallback must answer"

let () =
  Alcotest.run "dbh_robust"
    [
      ( "guard",
        [
          Alcotest.test_case "passthrough" `Quick test_guard_passthrough;
          Alcotest.test_case "skip policy" `Quick test_guard_skip_policy;
          Alcotest.test_case "clamp policy" `Quick test_guard_clamp_policy;
          Alcotest.test_case "raise policy" `Quick test_guard_raise_policy;
          Alcotest.test_case "budget exhaustion passes through" `Quick
            test_guard_lets_budget_exhaustion_through;
          Alcotest.test_case "pp" `Quick test_guard_pp;
        ] );
      ( "faulty_space",
        [
          Alcotest.test_case "deterministic at fixed seed" `Quick test_faulty_deterministic;
          Alcotest.test_case "config change keeps alignment" `Quick
            test_faulty_config_change_keeps_alignment;
          Alcotest.test_case "validation" `Quick test_faulty_validation;
          Alcotest.test_case "disable" `Quick test_faulty_disable;
        ] );
      ( "budget",
        [
          Alcotest.test_case "basics" `Quick test_budget_basics;
          Alcotest.test_case "index query bound" `Quick test_index_query_budget;
          Alcotest.test_case "hierarchical query bound" `Quick test_hierarchical_query_budget;
          Alcotest.test_case "online query bound" `Quick test_online_query_budget;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "validation" `Quick test_breaker_validation;
          Alcotest.test_case "trip and recover under faults" `Quick test_breaker_trip_and_recover;
          Alcotest.test_case "fallback budget + exactness" `Quick
            test_breaker_fallback_budget_and_exactness;
        ] );
    ]
