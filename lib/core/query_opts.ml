type t = {
  budget : int option;
  pool : Dbh_util.Pool.t option;
  metrics : Dbh_obs.Metrics.t option;
  trace : Dbh_obs.Trace.t option;
  probes_per_table : int;
  hamming_radius : int;
}

let default =
  {
    budget = None;
    pool = None;
    metrics = None;
    trace = None;
    probes_per_table = 1;
    hamming_radius = 0;
  }

let make ?budget ?pool ?metrics ?trace ?(probes_per_table = 1) ?(hamming_radius = 0) () =
  { budget; pool; metrics; trace; probes_per_table; hamming_radius }

let budgeted n = { default with budget = Some n }

let multiprobe ?(hamming_radius = 2) probes_per_table =
  { default with probes_per_table; hamming_radius }
