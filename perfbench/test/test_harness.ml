(* Tests of the benchmark's own logic: the ten-beyond percentile rule,
   open-loop stall charging, the capacity search, failure accounting,
   the result line against BENCHMARK.json, and the speed correction. *)

open Perfbench_harness

let floats n = Array.init n (fun i -> float_of_int (i + 1))

let test_ten_beyond () =
  Alcotest.(check bool) "p99 needs 1000" false (Pct.reportable ~permille:990 999);
  Alcotest.(check bool) "p99 at 1000" true (Pct.reportable ~permille:990 1000);
  Alcotest.(check bool) "p50 needs 20" false (Pct.reportable ~permille:500 19);
  Alcotest.(check int) "min p99" 1000 (Pct.min_samples ~permille:990);
  Alcotest.(check int) "min p50" 20 (Pct.min_samples ~permille:500);
  Alcotest.(check (float 0.)) "p99 of 1..1000 leaves ten above" 990. (Pct.percentile ~permille:990 (floats 1000));
  Alcotest.(check (float 0.)) "p50 of 1..20" 10. (Pct.percentile ~permille:500 (floats 20));
  Alcotest.check_raises "too few" (Pct.Too_few { permille = 990; samples = 999 }) (fun () ->
      ignore (Pct.percentile ~permille:990 (floats 999)))

(* A simulated clock: operations advance it by their service time. *)
let test_stall_charging () =
  let now = ref 0. in
  let due = Array.init 60 (fun i -> 0.01 *. float_of_int i) in
  let service i = if i = 10 then 0.1 else 0.001 in
  let t =
    Openloop.run ~now:(fun () -> !now) ~sleep_until:(fun t -> now := Float.max !now t) ~t0:0. ~due
      ~op:(fun i -> now := !now +. service i)
  in
  let stall_end = 0.1 +. 0.1 in
  Array.iteri
    (fun i (x : Openloop.timing) ->
      if x.due >= 0.1 && x.due < stall_end then
        Alcotest.(check bool)
          (Printf.sprintf "op %d due during the stall is charged the wait" i)
          true
          (Openloop.latency x >= stall_end -. x.due -. 1e-9);
      if x.due < 0.1 then Alcotest.(check (float 1e-9)) "before the stall" 0.001 (Openloop.latency x))
    t;
  Alcotest.(check bool) "the generator ran late during the stall" true (Openloop.late t.(11) > 0.08);
  Alcotest.(check (float 1e-9)) "well after the stall" 0.001 (Openloop.latency t.(59))

let test_poisson_seeded () =
  let draw seed =
    let st = Random.State.make [| seed |] in
    Openloop.poisson ~uniform:(fun () -> Random.State.float st 1.) ~rate:500. ~duration:2.
  in
  Alcotest.(check bool) "same seed, same schedule" true (draw 3 = draw 3);
  let n = Array.length (draw 3) in
  Alcotest.(check bool) "about rate × duration arrivals" true (n > 850 && n < 1150);
  Alcotest.(check bool) "ascending" true (Array.for_all2 ( <= ) (Array.sub (draw 3) 0 (n - 1)) (Array.sub (draw 3) 1 (n - 1)))

(* p99(rate) = 2 ms / (1 - rate/1000): the limit of 20 ms holds up to
   900 per second. *)
let synthetic rate =
  let p99 = if rate >= 1000. then infinity else 2. /. (1. -. (rate /. 1000.)) in
  { Capacity.rate; p99_ms = p99; drain_ms = (if rate > 950. then 100. else 1.); attempted = 1000; missed = 0 }

let test_capacity_search () =
  let o = Capacity.search ~slo_ms:20. ~start:300. ~step:1.25 ~precision:0.05 ~max_probes:20 ~probe:synthetic in
  match o.best with
  | None -> Alcotest.fail "no passing rate"
  | Some r ->
      Alcotest.(check bool) (Printf.sprintf "%.1f within 5%% below 900" r) true (r <= 900. && r >= 900. /. 1.05);
      Alcotest.(check bool) "every passing probe is at or below the answer" true
        (List.for_all (fun p -> (not (Capacity.passes ~slo_ms:20. p)) || p.Capacity.rate <= r) o.probes);
      Alcotest.(check bool) "a failing rung brackets the limit" true o.bracketed;
      let short = Capacity.search ~slo_ms:20. ~start:300. ~step:1.25 ~precision:0.05 ~max_probes:3 ~probe:synthetic in
      Alcotest.(check bool) "a climb cut by its budget is not a limit" false short.bracketed;
      Alcotest.(check (option (float 1e-9))) "it stops at its last passing rung" (Some 468.75) short.best

let test_capacity_descends_and_counts_misses () =
  let o = Capacity.search ~slo_ms:20. ~start:2000. ~step:1.5 ~precision:0.1 ~max_probes:20 ~probe:synthetic in
  Alcotest.(check bool) "found from above" true (match o.best with Some r -> r <= 900. && r > 800. | None -> false);
  Alcotest.(check bool) "a backlog fails the rung" false
    (Capacity.passes ~slo_ms:20. { (synthetic 100.) with drain_ms = 25. });
  Alcotest.(check (float 0.)) "2% misses push p99 to infinity" infinity
    (Capacity.p99_with_misses ~latencies_ms:(Array.make 980 1.) ~missed:20);
  Alcotest.(check (float 0.)) "0.5% misses stay inside p99" 1.
    (Capacity.p99_with_misses ~latencies_ms:(Array.make 995 1.) ~missed:5)

let test_failure_share () =
  let t = Tally.create () in
  for i = 1 to 50 do Tally.fixed t ~ok:(i mod 10 <> 0) done;
  Alcotest.(check int) "attempted" 50 t.attempted;
  Alcotest.(check int) "failed" 5 t.failed;
  Alcotest.(check (float 1e-12)) "share" 0.1 (Tally.failed_share t);
  Tally.probe t ~limit:(Some 400.) { (synthetic 300.) with attempted = 100; missed = 1 };
  Tally.probe t ~limit:(Some 400.) { (synthetic 500.) with attempted = 100; missed = 30 };
  Alcotest.(check int) "probes are not fixed-load attempts" 50 t.attempted;
  Alcotest.(check int) "probe attempts" 200 t.probe_attempted;
  Alcotest.(check int) "probe misses" 31 t.probe_missed;
  Alcotest.(check int) "misses above the limit" 30 t.probe_missed_above_limit;
  Alcotest.(check (float 0.)) "no attempts, no share" 0. (Tally.failed_share (Tally.create ()))

let benchmark_names key =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.member key (Json.parse s) with
  | Json.Arr l -> List.map (fun m -> match (Json.member "name" m, Json.member "unit" m) with Json.Str n, Json.Str u -> (n, u) | _ -> Alcotest.fail "bad metric") l
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let test_result_line () =
  List.iter
    (fun (trace, key, spec) ->
      Alcotest.(check (list (pair string string))) ("spec matches BENCHMARK.json " ^ key) (benchmark_names key) spec;
      let values = List.mapi (fun i (n, _) -> (n, 1.25 +. float_of_int i)) spec in
      let line = Json.to_string (Spec.result ~trace ~correct:true ~attempted:12 ~failed:0 values) in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      let j = Json.parse line in
      (match j with
      | Json.Obj kv -> Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kv)
      | _ -> Alcotest.fail "not an object");
      List.iter
        (fun (n, u) ->
          let m = Json.member n (Json.member "metrics" j) in
          Alcotest.(check bool) (n ^ " present") true (Json.member "value" m = Json.Num (List.assoc n values));
          Alcotest.(check bool) (n ^ " unit") true (Json.member "unit" m = Json.Str u))
        spec;
      Alcotest.check_raises "a missing metric fails the run"
        (Failure ("metric missing from the run: " ^ fst (List.hd spec)))
        (fun () -> ignore (Spec.result ~trace ~correct:true ~attempted:1 ~failed:0 (List.tl values))))
    [ (false, "end_to_end", Spec.end_to_end); (true, "per_layer", Spec.per_layer) ]

(* The machine halves its speed at t = 1 s: reference units take
   30 us before and 60 us after. *)
let test_pace_states_timings_at_nominal_speed () =
  let at = Array.init 2000 (fun i -> 0.001 *. float_of_int i) in
  let s = { Pace.at; us = Array.map (fun t -> if t < 1. then Pace.nominal_us else 2. *. Pace.nominal_us) at } in
  let sp = Pace.speed s in
  Alcotest.(check (float 1e-12)) "full speed: unchanged" 1. (Pace.factor sp ~at:0.3);
  Alcotest.(check (float 1e-12)) "half speed: halved" 0.5 (Pace.factor sp ~at:1.5);
  Alcotest.(check (float 1e-12)) "before the first unit" 1. (Pace.factor sp ~at:(-1.));
  Alcotest.(check (float 1e-12)) "after the last unit" 0.5 (Pace.factor sp ~at:100.);
  Alcotest.(check (float 1e-12)) "overall: the median unit" (Pace.nominal_us /. (1.5 *. Pace.nominal_us)) (Pace.overall s);
  (* A few stretched units (a collection or a preemption inside them)
     move nothing. *)
  let us = Array.mapi (fun i _ -> if i mod 10 = 0 then 50. *. Pace.nominal_us else Pace.nominal_us) at in
  Alcotest.(check (float 1e-12)) "stretched units" 1. (Pace.factor (Pace.speed { s with us }) ~at:0.5);
  (* A slice with too few units borrows its neighbour's speed. *)
  let sparse = { Pace.at = Array.append (Array.sub at 0 200) [| 0.5 |]; us = Array.append (Array.make 200 60.) [| 30. |] } in
  Alcotest.(check (float 1e-12)) "sparse slice" 0.5 (Pace.factor (Pace.speed sparse) ~at:0.5);
  let t = Pace.create () in
  for _ = 1 to 5000 do Pace.tick t done;
  let r = Pace.samples t in
  Alcotest.(check int) "every tick is kept" 5000 (Pace.count r);
  Alcotest.(check bool) "ascending, positive" true
    (Array.for_all (fun u -> u > 0.) r.us && Array.for_all2 ( <= ) (Array.sub r.at 0 4999) (Array.sub r.at 1 4999))

let test_numbers_keep_digits () =
  Alcotest.(check string) "all digits" "0.30000000000000004" (Json.to_string (Json.Num (0.1 +. 0.2)));
  Alcotest.(check string) "integers" "1000" (Json.to_string (Json.Num 1000.))

let () =
  Alcotest.run "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "ten-beyond percentile rule" `Quick test_ten_beyond;
          Alcotest.test_case "open-loop stall is charged to every request due during it" `Quick test_stall_charging;
          Alcotest.test_case "seeded poisson schedule" `Quick test_poisson_seeded;
          Alcotest.test_case "capacity search on a synthetic latency curve" `Quick test_capacity_search;
          Alcotest.test_case "capacity search descends, counts misses and backlog" `Quick
            test_capacity_descends_and_counts_misses;
          Alcotest.test_case "failure-share arithmetic" `Quick test_failure_share;
          Alcotest.test_case "result line parses with every named metric" `Quick test_result_line;
          Alcotest.test_case "numbers keep their digits" `Quick test_numbers_keep_digits;
          Alcotest.test_case "timings at the reference's nominal speed" `Quick
            test_pace_states_timings_at_nominal_speed;
        ] );
    ]
