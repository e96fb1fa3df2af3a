(* Operation accounting.  The result line's attempted/failed count only
   fixed-load phases, which offer the same load to every commit; the
   capacity search offers each commit different rates, so its probes
   are counted apart, with the ones above the found limit split out. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable probe_attempted : int;
  mutable probe_missed : int;
  mutable probe_missed_above_limit : int;
}

let create () =
  { attempted = 0; failed = 0; probe_attempted = 0; probe_missed = 0;
    probe_missed_above_limit = 0 }

let fixed t ~ok = t.attempted <- t.attempted + 1; if not ok then t.failed <- t.failed + 1

let probe t ~limit (p : Capacity.probe) =
  t.probe_attempted <- t.probe_attempted + p.attempted;
  t.probe_missed <- t.probe_missed + p.missed;
  match limit with
  | Some l when p.rate > l ->
      t.probe_missed_above_limit <- t.probe_missed_above_limit + p.missed
  | _ -> ()

let failed_share t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted
