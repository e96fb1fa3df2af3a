(** Multi-probe sequences over packed keys (multi-probe LSH, Lv et al.,
    the paper's citation [11], transplanted to DBH codes).

    Given per-bit flip penalties — how decisively each of a key's [k]
    projections cleared its [t1, t2] thresholds — the generator
    enumerates perturbed keys in non-decreasing order of summed penalty
    using the shift/expand heap walk, visiting every non-empty bit
    subset of size at most [radius] exactly once.  The cheapest probes
    flip only the lowest-margin bits: the buckets a near-miss neighbor
    most likely fell into. *)

type t
(** Reusable workspace (penalty-sorted positions + the probe heap).
    Single-domain state, like {!Scratch.t}: share across sequential
    queries only. *)

val create : unit -> t
(** Empty workspace; grows on first use and is then allocation-free for
    any query of the same or smaller width/probe count (test_multiprobe
    counts 0 minor words over 10,000 warmed full-ball generations). *)

val generate :
  t ->
  base:Key.t ->
  width:int ->
  radius:int ->
  max_probes:int ->
  margins:float array ->
  fns:int array ->
  emit:(Key.t -> unit) ->
  unit
(** [generate t ~base ~width ~radius ~max_probes ~margins ~fns ~emit]
    calls [emit] on up to [max_probes] distinct keys obtained by
    XOR-flipping non-empty subsets of at most [radius] bits of [base],
    in non-decreasing order of summed flip penalty (the cost of flipping
    code bit [j], [0 <= j < width], is [margins.(fns.(j))]: a table's
    function ids index the query's margin row; ties resolve to lower bit
    positions first, so the sequence is deterministic).
    [base] itself is never emitted.  Emits fewer than [max_probes] keys
    when the radius-[radius] ball is smaller ({!Key.ball_size}): then
    every key of the ball comes out exactly once, which is how the
    query path serves a budget that covers the whole ball.  Emits
    nothing when [max_probes <= 0] or [radius = 0].  Raises
    [Invalid_argument] on a bad width, a radius outside
    [\[0, Key.max_radius\]] or fewer than [width] function ids. *)
