(** Admission control: per-tenant token buckets in front of one bounded
    queue, with deadline-derived distance budgets.

    The design goal is {e shed, don't collapse}: every request is either
    admitted into a queue whose depth is hard-capped, or refused
    immediately with an explicit reason — never parked on an unbounded
    backlog that grows until latency (and memory) destroy goodput for
    everyone.  Refusals cost one mutex acquisition and no distance
    computation, which is what keeps goodput flat beyond saturation.

    {b Deadline → budget.}  The paper's cost model prices a query in
    distance computations, so a wall-clock deadline converts directly
    into a [Dbh.Query_opts] budget: [remaining × distances_per_second],
    clamped to the tenant class's [max_budget].  The server keeps the
    [distances_per_second] estimate fresh from measured batch
    throughput; a request arriving with little time left is admitted
    with a small budget and returns a truncated-but-useful answer
    instead of blowing its deadline. *)

type tenant_class = {
  rate : float;  (** admissions per second *)
  burst : float;  (** token reserve *)
  max_budget : int;  (** hard cap on the distance budget of one query *)
}

type config = {
  queue_capacity : int;
  default_deadline : float;  (** seconds granted to requests without one *)
  max_deadline : float;  (** client deadlines are clamped to this *)
  default_class : tenant_class;  (** all unconfigured tenants {e share} one bucket *)
  classes : (string * tenant_class) list;  (** per-tenant overrides, own buckets *)
}

val default_class : tenant_class
val default_config : config

(** One admitted unit of work.  [request] is whatever the caller queues:
    the server queues a request with its payload already decoded, so
    the batcher never decodes it again.  [reply] must be called exactly
    once — with the result, or with the shed/timeout response. *)
type 'w item = {
  request : 'w;
  id : int64;
  tenant : string;
  deadline : float;  (** absolute, same clock as [now] arguments *)
  budget : int;  (** distance budget derived at admission *)
  enqueued_at : float;
  reply : Protocol.response -> unit;
}

type verdict =
  | Admitted
  | Shed_rate of float  (** seconds until the tenant's bucket allows one *)
  | Shed_queue  (** queue at capacity *)
  | Shed_draining

type 'w t

val create : ?now:float -> config -> 'w t
(** Raises [Invalid_argument] on a non-positive capacity, deadline or
    tenant-class field. *)

val resolve_deadline : 'w t -> now:float -> deadline_ms:int -> float
(** Absolute deadline for a request: [now] + the client's deadline
    clamped to [max_deadline], or [default_deadline] when the client
    sent none (0). *)

val budget_for : 'w t -> tenant:string -> remaining:float -> requested:int -> int
(** Distance budget for a query with [remaining] seconds to live:
    [requested] when positive, else [remaining × distances_per_second] —
    both clamped to the tenant class's [max_budget], and at least 1. *)

val set_distances_per_second : 'w t -> float -> unit
(** Update the deadline→budget conversion rate (ignored unless positive
    and finite).  Called by the server from measured batch throughput. *)

val distances_per_second : 'w t -> float

val admit : 'w t -> now:float -> 'w item -> verdict
(** Queue capacity, then token bucket, under one lock — a [Shed_queue]
    consumes no token, so queue-full overload cannot also drain the
    tenant's rate allowance.  On [Admitted] the item is queued and a
    waiting worker is woken; on any shed verdict the item is {e not}
    queued and the caller owns the reply. *)

val start_draining : 'w t -> unit
(** All further {!admit} calls return [Shed_draining]; queued items
    remain and workers keep draining them. *)

val pop_batch : 'w t -> max:int -> 'w item list
(** Block until at least one item is available (or the queue is closed),
    then return up to [max] items in arrival order.  Returns [] only
    after {!close} with an empty queue — the worker's signal to exit. *)

val close : 'w t -> unit
(** Wake all waiting workers; {!pop_batch} drains what remains, then
    returns []. *)

val drain_remaining : 'w t -> 'w item list
(** Take everything still queued (for shedding at shutdown). *)

val depth : 'w t -> int

val tenant_tokens : 'w t -> now:float -> (string * float) list
(** Current token reserve per configured class, plus ["default"] — for
    the per-tenant gauges. *)
