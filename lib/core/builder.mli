(** One-call construction of tuned DBH indexes.

    Wires together the full offline pipeline of the paper: sample X_small
    and build the hash family (Sec. V-B), draw sample queries from the
    database, fit the statistical model (Sec. IV-C), search for the
    optimal [(k,l)] at the desired accuracy (Sec. IV-D), and build either
    a single-level index or the hierarchical cascade (Sec. V-A). *)

type config = {
  num_pivots : int;  (** |X_small| (default 100) *)
  threshold_sample : int;  (** sample projected per line (default 500) *)
  max_functions : int option;  (** cap on family size (default: all pairs) *)
  num_sample_queries : int;  (** database objects used as sample queries (default 200) *)
  num_fns : int;  (** functions sampled for collision estimates (default 250) *)
  db_sample : int;  (** database sample for lookup-cost estimates (default 500) *)
  k_min : int;
  k_max : int;
  l_max : int;
  slack : float;
      (** fraction of extra predicted distances the optimizer may spend
          to use fewer tables ({!Params.optimize}); default [0.03].  [0.]
          is the paper's objective, and for {!hierarchical} the paper's
          per-level optimizer; above [0.], {!hierarchical} builds the
          lean cascade plan, each level tuned for what the levels before
          it already catch ({!Hierarchical.build}).  Negative or
          non-finite values raise [Invalid_argument]. *)
  levels : int;  (** strata for the hierarchical variant (default 5) *)
}

val default_config : config
(** The paper's settings where it states them (100 pivots, 5 levels),
    sensible defaults elsewhere.  Its [slack] of [0.03] departs from the
    paper: set [slack = 0.] to reproduce the paper's optimizer. *)

type 'a prepared = {
  family : 'a Hash_family.t;
  analysis : Analysis.t;
  sample_query_indices : int array;
  pivot_table : float array array;
      (** database × pivot distances, computed first and once: the
          family's threshold fit, the model's signatures and every index
          build read their pivot distances from it *)
}
(** The reusable offline artifacts: one [prepared] can serve many target
    accuracies and both index flavours. *)

val prepare :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  space:'a Dbh_space.Space.t ->
  ?config:config ->
  'a array ->
  'a prepared
(** Build family + model from a database.  This is the expensive offline
    step (it brute-forces the sample queries' true nearest neighbors).
    [pool] fans it across domains; the artifacts are bit-identical to the
    sequential run for the same seed.

    Its distance bill is exactly [n·m + |Q|·(n − 1)] for [n] objects,
    [m] pivots and [|Q|] sample queries: it draws X_small and the
    threshold sample, computes {!prepared.pivot_table} first, and reads
    the family's fit and the model's signatures from it
    ({!Hash_family.make_with_table}, {!Analysis.build}); only the sample
    queries' nearest-neighbour scans pay more.  The family is the one
    {!Hash_family.make} builds with the same draws.  A NaN, negative or
    +∞ distance anywhere in the table raises [Invalid_argument].

    A bad [config.slack] raises [Invalid_argument] before any work. *)

val single :
  ?pool:Dbh_util.Pool.t ->
  ?probes:int ->
  ?radius:int ->
  rng:Dbh_util.Rng.t ->
  prepared:'a prepared ->
  db:'a array ->
  target_accuracy:float ->
  ?config:config ->
  unit ->
  ('a Index.t * Params.choice) option
(** Tuned single-level index, or [None] when the target accuracy is
    unreachable under the model within [l_max].  [probes]/[radius]
    (defaults [1]/[0]) tune under the multi-probe model
    ({!Params.optimize}): the returned choice typically needs fewer
    tables, on the understanding that queries will run with
    [Query_opts.multiprobe] knobs to make up the recall. *)

val hierarchical :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  prepared:'a prepared ->
  db:'a array ->
  target_accuracy:float ->
  ?config:config ->
  unit ->
  'a Hierarchical.t
(** The cascade of {!Hierarchical.build} at [config]'s levels, k and l
    ranges and slack: at [slack = 0.] the paper's per-level optimizer,
    at the default [0.03] the lean cascade plan. *)

val auto :
  ?pool:Dbh_util.Pool.t ->
  rng:Dbh_util.Rng.t ->
  space:'a Dbh_space.Space.t ->
  ?config:config ->
  target_accuracy:float ->
  'a array ->
  'a Hierarchical.t
(** The quickstart entry point: [auto ~rng ~space ~target_accuracy db]
    runs {!prepare} and {!hierarchical} in one call. *)
