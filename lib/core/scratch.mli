(** Reusable per-query workspace: seen mask + candidate buffer + pivot
    scratch + the query's family row of hash bits + key, margin and
    probe rows.

    A query marks every candidate it dedupes into the scratch and every
    hash function it evaluates into the family row; [reset] clears only
    the marked bytes and the evaluated cells (O(candidates + functions
    evaluated), not O(store + family)), so one scratch amortises the hot
    path's allocations to zero across queries.

    Queries take no scratch: every query entry point works in its
    domain's one workspace, held in domain-local storage, and resets it
    on exit.  A query that finds that workspace in use — because it is
    nested inside a distance function, or because another systhread of
    the same domain is mid-query — works in a fresh one instead, so two
    live queries never share marks.  A scratch is single-domain state;
    the values below serve the engine, tests and diagnostics
    ({!Index.candidates_into}). *)

type t

val create : unit -> t
(** Fresh empty scratch, capacity 0. *)

val ensure : t -> int -> unit
(** Grow the seen mask to cover ids [0, n), to at least twice the old
    capacity when it grows at all.  Called at query start, when the
    scratch is clean; marks never survive growth. *)

val capacity : t -> int

val mark : t -> int -> bool
(** [mark t id] is [true] the first time [id] is marked since the last
    {!reset} (and records it), [false] on every repeat — the query-side
    dedup test-and-set.  [id] must be below {!capacity}. *)

val mem : t -> int -> bool
(** Has [id] been marked since the last reset?  (No marking.) *)

val count : t -> int
(** Ids marked since the last reset. *)

val get : t -> int -> int
(** [get t i]: the [i]-th marked id, in discovery order, [i < count t].
    Valid until the next {!reset}. *)

val to_list : t -> int list
(** The marked ids in discovery order (allocates; diagnostics/tests). *)

val reset : t -> unit
(** Unmark everything and make every cell of the family row unknown,
    O(count + cells set).  Queries reset on exit — including exceptional
    exit — so the scratch is always clean between queries. *)

val pivot_dists : t -> int -> float array
(** A reusable row of at least [m] floats for the pivot-distance cache.
    Contents are unspecified — the cache constructor re-initialises it.
    The row is owned by the scratch: at most one live cache per scratch. *)

val fn_row : t -> int -> Hash_family.row
(** The query's family row, covering at least [m] functions: one cell
    per function of the query's family, each evaluated at most once per
    query however many tables and cascade levels draw it
    ({!Hash_family.eval_fns}).  Unknown everywhere between queries;
    {!reset} clears the cells a query set. *)

val key_row : t -> int -> int array
(** A reusable row of at least [m] ints for one level's table keys.
    Contents are unspecified — the caller overwrites before reading. *)

val margin_row : t -> int -> float array
(** A reusable row of at least [m] floats for flip margins, indexed by
    family function (multi-probe path).  Contents are unspecified — the
    caller overwrites before reading. *)

val probe_seq : t -> Probe_seq.t
(** The scratch's reusable multi-probe workspace (penalty-sorted bits +
    probe heap) — like the other rows, reused across the queries that
    work in this scratch. *)
