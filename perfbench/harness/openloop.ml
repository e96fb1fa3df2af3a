(* Open-loop load: operations are due on a seeded schedule whether or
   not earlier ones have finished, and each is charged from its due time.
   A stall therefore counts against every operation due while it lasts,
   not only against the operation that caused it. *)

(* Poisson arrivals at [rate] per second over [0, duration): due offsets
   in seconds, ascending.  [uniform] draws from [0, 1). *)
let poisson ~uniform ~rate ~duration =
  let rec go t acc =
    let t = t -. (log (1. -. uniform ()) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type timing = {
  due : float;  (* absolute, seconds *)
  start : float;  (* when the operation actually began *)
  stop : float;
}

let latency t = t.stop -. t.due
let late t = t.start -. t.due
let service t = t.stop -. t.start

(* One caller: operation [i] starts at its due time or when operation
   [i-1] ends, whichever is later.  [now] and [sleep_until] are
   parameters so tests can run the loop on a simulated clock. *)
let run ~now ~sleep_until ~t0 ~due ~op =
  Array.mapi
    (fun i d ->
      let due = t0 +. d in
      sleep_until due;
      let start = now () in
      op i;
      { due; start; stop = now () })
    due
