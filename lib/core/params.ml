type choice = {
  k : int;
  l : int;
  predicted_accuracy : float;
  predicted_lookup : float;
  predicted_hash : float;
  predicted_cost : float;
}

let pp_choice ppf c =
  Format.fprintf ppf "k=%d l=%d acc=%.4f cost=%.1f (lookup=%.1f hash=%.1f)" c.k c.l
    c.predicted_accuracy c.predicted_cost c.predicted_lookup c.predicted_hash

let min_l_for_accuracy ?(probes = 1) ?(radius = 0) analysis ~k ~target ~l_max =
  if Analysis.accuracy ~probes ~radius analysis ~k ~l:l_max < target then None
  else begin
    (* Accuracy is monotone non-decreasing in l: bisect. *)
    let lo = ref 1 and hi = ref l_max in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Analysis.accuracy ~probes ~radius analysis ~k ~l:mid >= target then hi := mid
      else lo := mid + 1
    done;
    Some !lo
  end

let choice_of ~probes ~radius analysis ~k ~l =
  let lookup = Analysis.lookup_cost ~probes ~radius analysis ~k ~l in
  let hash = Analysis.hash_cost analysis ~k ~l in
  {
    k;
    l;
    predicted_accuracy = Analysis.accuracy ~probes ~radius analysis ~k ~l;
    predicted_lookup = lookup;
    predicted_hash = hash;
    predicted_cost = lookup +. hash;
  }

let check_target target =
  if target < 0. || target >= 1. then
    invalid_arg "Params: target accuracy must lie in [0, 1)"

let landscape ?(probes = 1) ?(radius = 0) analysis ~target_accuracy ?(k_min = 1)
    ?(k_max = 30) ?(l_max = 1000) () =
  check_target target_accuracy;
  if k_min < 1 || k_max < k_min then invalid_arg "Params.landscape: bad k range";
  let choices = ref [] in
  for k = k_max downto k_min do
    match min_l_for_accuracy ~probes ~radius analysis ~k ~target:target_accuracy ~l_max with
    | None -> ()
    | Some l -> choices := choice_of ~probes ~radius analysis ~k ~l :: !choices
  done;
  Array.of_list !choices

let check_slack slack =
  if not (Float.is_finite slack && slack >= 0.) then
    invalid_arg "Params: slack must be finite and non-negative"

let optimize ?probes ?radius ?(slack = 0.) analysis ~target_accuracy ?k_min ?k_max ?l_max () =
  check_slack slack;
  let choices = landscape ?probes ?radius analysis ~target_accuracy ?k_min ?k_max ?l_max () in
  if Array.length choices = 0 then None
  else begin
    let best = ref choices.(0) in
    Array.iter (fun c -> if c.predicted_cost < !best.predicted_cost then best := c) choices;
    if slack = 0. then Some !best
    else begin
      (* Eq. 14 prices a table at nothing once hashing saturates at the
         pivots, so the distance optimum buys its last fraction of a
         percent with hundreds of tables.  Take the fewest tables whose
         predicted cost stays within [slack] of it; ties go to the lower
         cost, then to landscape order. *)
      let bound = (1. +. slack) *. !best.predicted_cost in
      let lean = ref !best in
      Array.iter
        (fun c ->
          if
            c.predicted_cost <= bound
            && (c.l < !lean.l || (c.l = !lean.l && c.predicted_cost < !lean.predicted_cost))
          then lean := c)
        choices;
      Some !lean
    end
  end
