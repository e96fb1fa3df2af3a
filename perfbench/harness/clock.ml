(* Monotonic nanosecond clock (CLOCK_MONOTONIC via bechamel's stub):
   immune to wall-clock steps, fine enough to time single distance
   calls. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

let sleep_until_s t =
  let d = t -. now_s () in
  if d > 0. then Unix.sleepf d
