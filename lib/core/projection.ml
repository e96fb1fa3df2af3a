let project_with ~d1 ~d2 ~d12 = ((d1 *. d1) +. (d12 *. d12) -. (d2 *. d2)) /. (2. *. d12)
