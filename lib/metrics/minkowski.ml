let check_lengths a b =
  if Array.length a <> Array.length b then invalid_arg "Minkowski: dimension mismatch"

let l2_squared a b =
  check_lengths a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let l2 a b = sqrt (l2_squared a b)
let l2_space = Dbh_space.Space.make ~name:"L2" l2
