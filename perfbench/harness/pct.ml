(* Percentiles under the ten-beyond rule: a percentile is reported only
   when at least ten samples lie strictly above its rank, so p99 needs
   1000 samples and p50 needs 20.  Ranks are nearest-rank, computed in
   integers (per-mille) so p99 of 1000 samples is exactly sample 990. *)

exception Too_few of { permille : int; samples : int }

let beyond = 10

let rank ~permille n = ((permille * n) + 999) / 1000

let reportable ~permille n = n > 0 && n - rank ~permille n >= beyond

let min_samples ~permille =
  let rec go n = if reportable ~permille n then n else go (n + 1) in
  go 1

let percentile ~permille xs =
  let n = Array.length xs in
  if not (reportable ~permille n) then raise (Too_few { permille; samples = n });
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a.(max 0 (rank ~permille n - 1))

let () =
  Printexc.register_printer (function
    | Too_few { permille; samples } ->
        Some
          (Printf.sprintf "percentile p%g needs %d samples, got %d"
             (float_of_int permille /. 10.)
             (min_samples ~permille) samples)
    | _ -> None)
