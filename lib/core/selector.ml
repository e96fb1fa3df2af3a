type threshold_strategy = Random_interval | Median_split

type t =
  | Uniform of threshold_strategy
  | Density of { grid : int }
  | Neighbor of { neighbors : int; grid : int }

let uniform ?(threshold_strategy = Random_interval) () = Uniform threshold_strategy

let density_sensitive ?(grid = 16) () =
  if grid < 2 then invalid_arg "Selector.density_sensitive: grid must be at least 2";
  Density { grid }

let neighbor_sensitive ?(neighbors = 8) ?(grid = 16) () =
  if neighbors < 1 then invalid_arg "Selector.neighbor_sensitive: neighbors must be positive";
  if grid < 2 then invalid_arg "Selector.neighbor_sensitive: grid must be at least 2";
  Neighbor { neighbors; grid }

let default = Uniform Random_interval

let tag = function
  | Uniform Random_interval -> "uniform"
  | Uniform Median_split -> "median"
  | Density _ -> "density"
  | Neighbor _ -> "nsh"

let of_tag = function
  | "uniform" -> Some (uniform ())
  | "median" -> Some (uniform ~threshold_strategy:Median_split ())
  | "density" -> Some (density_sensitive ())
  | "nsh" -> Some (neighbor_sensitive ())
  | _ -> None

let known_tags = [ "uniform"; "median"; "density"; "nsh" ]
