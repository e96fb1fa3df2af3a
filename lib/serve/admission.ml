(* Bounded admission queue with per-tenant token buckets.

   One mutex guards the buckets and the queue together: an admission
   decision (refill bucket, take token, check capacity, enqueue) is
   atomic, so the queue bound is exact while the admission thread
   offers work, the batcher pops it and a drain takes what is left.  Unknown tenants share a single
   default bucket — per-tenant state is bounded by the configuration,
   not by whatever names clients invent. *)

type tenant_class = { rate : float; burst : float; max_budget : int }

type config = {
  queue_capacity : int;
  default_deadline : float;
  max_deadline : float;
  default_class : tenant_class;
  classes : (string * tenant_class) list;
}

let default_class = { rate = 500.; burst = 250.; max_budget = 50_000 }

let default_config =
  {
    queue_capacity = 512;
    default_deadline = 1.0;
    max_deadline = 30.0;
    default_class;
    classes = [];
  }

type 'w item = {
  request : 'w;
  id : int64;
  tenant : string;
  deadline : float;
  budget : int;
  enqueued_at : float;
  reply : Protocol.response -> unit;
}

type verdict = Admitted | Shed_rate of float | Shed_queue | Shed_draining

type 'w t = {
  config : config;
  mutex : Mutex.t;
  not_empty : Condition.t;
  queue : 'w item Queue.t;
  buckets : (string * tenant_class * Bucket.t) list;  (* configured tenants *)
  default_bucket : Bucket.t;
  mutable draining : bool;
  mutable closed : bool;
  dps : float Atomic.t;  (* distances per second, for deadline→budget *)
}

let check_class name (c : tenant_class) =
  if c.rate <= 0. || Float.is_nan c.rate then
    invalid_arg (Printf.sprintf "Admission: class %s: rate must be > 0" name);
  if c.burst < 1. || Float.is_nan c.burst then
    invalid_arg (Printf.sprintf "Admission: class %s: burst must be >= 1" name);
  if c.max_budget < 1 then
    invalid_arg (Printf.sprintf "Admission: class %s: max_budget must be >= 1" name)

let create ?(now = Unix.gettimeofday ()) config =
  if config.queue_capacity < 1 then
    invalid_arg "Admission: queue_capacity must be >= 1";
  if config.default_deadline <= 0. then
    invalid_arg "Admission: default_deadline must be > 0";
  if config.max_deadline < config.default_deadline then
    invalid_arg "Admission: max_deadline must be >= default_deadline";
  check_class "default" config.default_class;
  List.iter (fun (n, c) -> check_class n c) config.classes;
  {
    config;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    queue = Queue.create ();
    buckets =
      List.map
        (fun (n, c) -> (n, c, Bucket.create ~rate:c.rate ~burst:c.burst ~now))
        config.classes;
    default_bucket =
      Bucket.create ~rate:config.default_class.rate ~burst:config.default_class.burst
        ~now;
    draining = false;
    closed = false;
    dps = Atomic.make 50_000.;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let class_and_bucket t tenant =
  match List.find_opt (fun (n, _, _) -> String.equal n tenant) t.buckets with
  | Some (_, c, b) -> (c, b)
  | None -> (t.config.default_class, t.default_bucket)

let resolve_deadline t ~now ~deadline_ms =
  let d =
    if deadline_ms <= 0 then t.config.default_deadline
    else Float.min (float_of_int deadline_ms /. 1000.) t.config.max_deadline
  in
  now +. d

let set_distances_per_second t dps =
  if dps > 0. && Float.is_finite dps then Atomic.set t.dps dps

let distances_per_second t = Atomic.get t.dps

let budget_for t ~tenant ~remaining ~requested =
  let cls, _ = class_and_bucket t tenant in
  let derived =
    if requested > 0 then requested
    else begin
      let by_time = Float.max 0. remaining *. Atomic.get t.dps in
      if by_time >= float_of_int cls.max_budget then cls.max_budget
      else int_of_float by_time
    end
  in
  max 1 (min derived cls.max_budget)

let admit t ~now item =
  locked t (fun () ->
      if t.draining || t.closed then Shed_draining
      else if Queue.length t.queue >= t.config.queue_capacity then
        (* Capacity before the bucket: a queue shed must not burn the
           tenant's token, or sustained queue-full overload would
           double-penalize tenants whose work was never executed. *)
        Shed_queue
      else begin
        let _, bucket = class_and_bucket t item.tenant in
        if not (Bucket.try_take bucket ~now) then
          Shed_rate (Bucket.seconds_until bucket ~now)
        else begin
          Queue.push item t.queue;
          Condition.signal t.not_empty;
          Admitted
        end
      end)

let start_draining t = locked t (fun () -> t.draining <- true)

let pop_batch t ~max =
  locked t (fun () ->
      while Queue.is_empty t.queue && not t.closed do
        Condition.wait t.not_empty t.mutex
      done;
      let rec take acc n =
        if n = 0 || Queue.is_empty t.queue then List.rev acc
        else take (Queue.pop t.queue :: acc) (n - 1)
      in
      take [] (max : int))

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.not_empty)

let drain_remaining t =
  locked t (fun () ->
      let rec take acc =
        if Queue.is_empty t.queue then List.rev acc else take (Queue.pop t.queue :: acc)
      in
      take [])

let depth t = locked t (fun () -> Queue.length t.queue)

let tenant_tokens t ~now =
  locked t (fun () ->
      List.map (fun (n, _, b) -> (n, Bucket.tokens b ~now)) t.buckets
      @ [ ("default", Bucket.tokens t.default_bucket ~now) ])
