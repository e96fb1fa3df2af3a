(** Distance-Based Hashing (Athitsos, Potamias, Papapetrou & Kollios,
    ICDE 2008): hash-based approximate nearest-neighbor indexing for
    arbitrary — including non-metric — distance measures.

    Typical use:

    {[
      let rng = Dbh_util.Rng.create 42 in
      let space = Dbh_space.Space.make ~name:"dtw" my_distance in
      let index = Dbh.Builder.auto ~rng ~space ~target_accuracy:0.95 db in
      match (Dbh.Hierarchical.search index q).Dbh.Index.nn with
      | Some (id, distance) -> ...
      | None -> ...
    ]}

    Queries take their cross-cutting options — distance budget, domain
    pool, metrics, trace — through one {!Query_opts.t} record passed to
    the [search]/[search_batch] entry points.

    Module map (paper reference in parentheses):

    - {!Projection}: pseudo line projections (Eq. 4)
    - {!Hash_family}: the binary hash function family over a pivot set
      X_small (Eq. 5–7, Sec. V-B)
    - {!Collision}: collision-probability model C, C_k, C_{k,l}
      (Eq. 8–10)
    - {!Analysis}: sample-based accuracy and cost estimation (Eq. 11–14)
    - {!Params}: optimal (k, l) search (Sec. IV-D)
    - {!Store}: dynamic object store shared between indexes
    - {!Key}: packed k-bit bucket keys (one tagged int each) with
      Hamming-ball enumeration for multi-probe
    - {!Probe_seq}: the multi-probe sequence generator (penalty-ordered
      Hamming-adjacent keys)
    - {!Csr}: frozen CSR hash tables with a mutable insert delta
    - {!Scratch}: the per-query workspace each domain reuses across its
      queries (zero-alloc hot path)
    - {!Budget}: per-query distance-computation budgets
    - {!Query_opts}: the one-record query options (budget, pool,
      metrics, trace, multi-probe knobs)
    - {!Index}: single-level index — build, NN / k-NN / range /
      multi-probe / budgeted queries, insert/delete, save/load
    - {!Hierarchical}: the s-level cascade (Sec. V-A)
    - {!Builder}: one-call offline pipeline
    - {!Diagnostics}: structural health checks for built indexes
    - {!Online}: self-maintaining wrapper that rebuilds as the database
      grows or shrinks *)

module Projection = Projection
module Hash_family = Hash_family
module Collision = Collision
module Analysis = Analysis
module Params = Params
module Store = Store
module Key = Key
module Probe_seq = Probe_seq
module Csr = Csr
module Scratch = Scratch
module Budget = Budget
module Query_opts = Query_opts
module Index = Index
module Hierarchical = Hierarchical
module Builder = Builder
module Diagnostics = Diagnostics
module Online = Online
