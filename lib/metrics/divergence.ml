let check_lengths a b =
  if Array.length a <> Array.length b then invalid_arg "Divergence: dimension mismatch"

let kl ?(epsilon = 1e-12) p q =
  check_lengths p q;
  let acc = ref 0. in
  for i = 0 to Array.length p - 1 do
    let pi = Float.max epsilon p.(i) and qi = Float.max epsilon q.(i) in
    acc := !acc +. (pi *. log (pi /. qi))
  done;
  !acc

let symmetric_kl p q = kl p q +. kl q p

let chi2 p q =
  check_lengths p q;
  let acc = ref 0. in
  for i = 0 to Array.length p - 1 do
    let s = p.(i) +. q.(i) in
    if s > 0. then begin
      let d = p.(i) -. q.(i) in
      acc := !acc +. (d *. d /. s)
    end
  done;
  0.5 *. !acc

let normalize p =
  let total = Array.fold_left ( +. ) 0. p in
  if total <= 0. then invalid_arg "Divergence.normalize: non-positive sum";
  Array.map (fun x -> x /. total) p

let symmetric_kl_space = Dbh_space.Space.make ~name:"symKL" symmetric_kl
