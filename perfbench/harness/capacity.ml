(* Search for the highest offered rate whose p99 latency stays under a
   fixed limit without a growing backlog.  Requests that fail or are
   shed count as misses: they take part in the p99 as infinitely late.
   The climb is geometric until a rung fails; bisection then narrows
   the bracket to [precision] (relative), so the answer does not flip
   between coarse rungs from one run to the next. *)

type probe = {
  rate : float;  (* offered, per second *)
  p99_ms : float;  (* infinity when more than 1% missed *)
  drain_ms : float;  (* time past the schedule's end until the last reply *)
  attempted : int;
  missed : int;
}

let p99_with_misses ~latencies_ms ~missed =
  let n = Array.length latencies_ms + missed in
  let all = Array.append latencies_ms (Array.make missed infinity) in
  if n = 0 then infinity else Pct.percentile ~permille:990 all

(* A backlog that is still draining well after the last request was due
   means the offered rate outran the server. *)
let passes ~slo_ms p = p.p99_ms <= slo_ms && p.drain_ms <= slo_ms

(* [bracketed]: a rung above [best] failed, so [best] is a limit and not
   just the highest rung the probe budget reached. *)
type outcome = { best : float option; bracketed : bool; probes : probe list (* in probe order *) }

let search ~slo_ms ~start ~step ~precision ~max_probes ~probe =
  let probes = ref [] in
  let run rate =
    let p = probe rate in
    probes := p :: !probes;
    passes ~slo_ms p
  in
  let budget () = List.length !probes < max_probes in
  let rec bisect lo hi =
    if hi /. lo <= 1. +. precision || not (budget ()) then lo
    else
      let mid = sqrt (lo *. hi) in
      if run mid then bisect mid hi else bisect lo mid
  in
  let rec climb lo rate =
    if not (budget ()) then lo
    else if run rate then climb (Some rate) (rate *. step)
    else match lo with Some lo -> Some (bisect lo rate) | None -> descend rate
  and descend hi =
    let rate = hi /. step in
    if not (budget ()) then None
    else if run rate then Some (bisect rate hi)
    else descend rate
  in
  let best = climb None start in
  let probes = List.rev !probes in
  let bracketed =
    match best with
    | Some b -> List.exists (fun p -> p.rate > b && not (passes ~slo_ms p)) probes
    | None -> false
  in
  { best; bracketed; probes }
