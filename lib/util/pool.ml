(* Work-stealing domain pool.  See pool.mli for the contract; the short
   version: each batch pre-places its chunk tasks onto per-domain
   Chase-Lev deques (owner pops LIFO at the bottom, thieves steal FIFO
   at the top through [Atomic] compare-and-set), so a domain that
   finishes its share early drains the loaded domains instead of
   idling.  Chunk boundaries and task placement are deterministic
   functions of the input size and the cost estimator — never of
   scheduling — so chunked reductions merge in a fixed order and
   parallel runs stay bit-identical to runs with no pool. *)

(* A single-batch Chase-Lev deque: the task array is placed before the
   batch is published and never grows, so there is no push protocol and
   no resizing — only the owner's bottom pop racing thieves' top CAS
   for the last element.  OCaml [Atomic] is sequentially consistent, so
   the classic algorithm needs no explicit fences. *)
type deque = {
  tasks : int array;  (* chunk ids owned by this slot, fixed at placement *)
  top : int Atomic.t;  (* next index a thief would take *)
  bottom : int Atomic.t;  (* one past the last index the owner still holds *)
}

type steal_result = Stolen of int | Empty | Contended

let pop d =
  let b = Atomic.get d.bottom - 1 in
  Atomic.set d.bottom b;
  let t = Atomic.get d.top in
  if t > b then begin
    (* Already empty: canonicalize and give up. *)
    Atomic.set d.bottom t;
    None
  end
  else if t = b then begin
    (* Last element: race thieves for it.  Exactly one CAS on [top]
       succeeds, so the task runs exactly once. *)
    let won = Atomic.compare_and_set d.top t (t + 1) in
    Atomic.set d.bottom (t + 1);
    if won then Some d.tasks.(b) else None
  end
  else Some d.tasks.(b)

let steal d =
  let t = Atomic.get d.top in
  let b = Atomic.get d.bottom in
  if t >= b then Empty
  else
    let task = d.tasks.(t) in
    if Atomic.compare_and_set d.top t (t + 1) then Stolen task else Contended

type batch = {
  run : int -> unit;
  deques : deque array;  (* one per pool slot *)
  remaining : int Atomic.t;  (* tasks not yet finished (ran or cancelled) *)
  cancelled : bool Atomic.t;  (* set on first failure; later tasks no-op *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;  (* a batch arrived, or the pool is shutting down *)
  finished : Condition.t;  (* the current batch fully drained *)
  mutable batch : batch option;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  (* Per-slot telemetry.  Each cell is written only by the domain owning
     that slot while a batch is live, and read by the submitter when the
     pool is quiescent, so plain arrays suffice. *)
  pops_t : int array;  (* tasks served from the slot's own deque *)
  steals_t : int array;  (* tasks stolen from other slots' deques *)
  busy_t : float array;  (* seconds spent inside task bodies *)
}

type telemetry = { local_pops : int array; steals : int array; busy_seconds : float array }

let size t = t.size

let telemetry t =
  {
    local_pops = Array.copy t.pops_t;
    steals = Array.copy t.steals_t;
    busy_seconds = Array.copy t.busy_t;
  }

let reset_telemetry t =
  Array.fill t.pops_t 0 t.size 0;
  Array.fill t.steals_t 0 t.size 0;
  Array.fill t.busy_t 0 t.size 0.

(* Run one task: skipped (but still counted down) once the batch is
   cancelled.  The busy-time write happens before this task's
   [remaining] decrement, so when the submitter observes zero remaining
   every telemetry write of the batch is visible. *)
let exec t b slot i =
  if not (Atomic.get b.cancelled) then begin
    let t0 = Dbh_obs.Metrics.now () in
    (try b.run i
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set b.failure None (Some (e, bt)));
       Atomic.set b.cancelled true);
    t.busy_t.(slot) <- t.busy_t.(slot) +. (Dbh_obs.Metrics.now () -. t0)
  end;
  if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
    (* Last task of the batch: wake the submitter.  Taking the mutex
       orders this broadcast after the submitter's remaining-check, so
       the wakeup cannot be missed. *)
    Mutex.lock t.mutex;
    Condition.broadcast t.finished;
    Mutex.unlock t.mutex
  end

(* Drain the slot's own deque, then hunt the other deques round-robin
   until a full scan finds every deque empty.  Nothing is ever pushed
   mid-batch, so an all-empty scan means the batch has no startable
   work left and this domain can retire.  A contended steal (CAS lost)
   means the victim may still hold work, so it resets the scan instead
   of counting as empty. *)
let run_batch t b slot =
  let width = Array.length b.deques in
  let own = b.deques.(slot) in
  let rec local () =
    match pop own with
    | Some i ->
        t.pops_t.(slot) <- t.pops_t.(slot) + 1;
        exec t b slot i;
        local ()
    | None -> ()
  in
  local ();
  let rec hunt idle victim =
    if idle >= width then ()
    else if victim = slot then hunt (idle + 1) ((victim + 1) mod width)
    else
      match steal b.deques.(victim) with
      | Stolen i ->
          t.steals_t.(slot) <- t.steals_t.(slot) + 1;
          exec t b slot i;
          hunt 0 victim (* keep milking the loaded victim *)
      | Contended -> hunt 0 ((victim + 1) mod width)
      | Empty -> hunt (idle + 1) ((victim + 1) mod width)
  in
  if width > 1 then hunt 0 ((slot + 1) mod width)

let worker t slot () =
  Mutex.lock t.mutex;
  let last = ref None in
  let rec loop () =
    match t.batch with
    | Some b when (match !last with Some prev -> prev != b | None -> true) ->
        last := Some b;
        Mutex.unlock t.mutex;
        run_batch t b slot;
        Mutex.lock t.mutex;
        loop ()
    | _ ->
        if t.closed then Mutex.unlock t.mutex
        else begin
          Condition.wait t.work t.mutex;
          loop ()
        end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      size = domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      closed = false;
      workers = [];
      pops_t = Array.make domains 0;
      steals_t = Array.make domains 0;
      busy_t = Array.make domains 0.;
    }
  in
  if domains > 1 then
    t.workers <- List.init (domains - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Deterministic weighted placement: heaviest chunks first (ties by
   ascending chunk id), each onto the least-loaded slot (ties to the
   lowest slot).  Depends only on the weights and the pool size, so the
   same batch always lands the same way. *)
let place width weights =
  let n = Array.length weights in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare weights.(b) weights.(a) with 0 -> compare a b | c -> c)
    order;
  let load = Array.make width 0 in
  let slot_of = Array.make n 0 in
  let counts = Array.make width 0 in
  Array.iter
    (fun ci ->
      let best = ref 0 in
      for s = 1 to width - 1 do
        if load.(s) < load.(!best) then best := s
      done;
      slot_of.(ci) <- !best;
      counts.(!best) <- counts.(!best) + 1;
      load.(!best) <- load.(!best) + max 1 weights.(ci))
    order;
  let deques =
    Array.init width (fun s ->
        {
          tasks = Array.make counts.(s) 0;
          top = Atomic.make 0;
          bottom = Atomic.make counts.(s);
        })
  in
  let fill = Array.make width 0 in
  (* Ascending chunk id within each deque, so owners and thieves both
     see a deterministic order (irrelevant to results, kept for
     debuggability). *)
  for ci = 0 to n - 1 do
    let s = slot_of.(ci) in
    deques.(s).tasks.(fill.(s)) <- ci;
    fill.(s) <- fill.(s) + 1
  done;
  deques

(* Per-task timing wrapper, applied only when a metric set is installed:
   the uninstrumented path runs the raw task function unchanged. *)
let timed_task m f i =
  let t0 = Dbh_obs.Metrics.now () in
  Fun.protect
    ~finally:(fun () ->
      Dbh_obs.Registry.observe m.Dbh_obs.Metrics.pool_task_seconds
        (Dbh_obs.Metrics.now () -. t0))
    (fun () -> f i)

let sum_ints a = Array.fold_left ( + ) 0 a

let run_tasks t ~weights f =
  let n = Array.length weights in
  if n = 0 then ()
  else begin
    let metrics = Dbh_obs.Metrics.get () in
    let f =
      match metrics with
      | None -> f
      | Some m ->
          Dbh_obs.Registry.inc m.Dbh_obs.Metrics.pool_batches_total;
          Dbh_obs.Registry.add m.Dbh_obs.Metrics.pool_tasks_total n;
          Dbh_obs.Registry.set m.Dbh_obs.Metrics.pool_queue_depth n;
          timed_task m f
    in
    let drained ~pops ~steals =
      match metrics with
      | None -> ()
      | Some m ->
          let open Dbh_obs in
          Registry.set m.Metrics.pool_queue_depth 0;
          Array.iter (fun g -> Registry.set g 0) m.Metrics.pool_deque_depth;
          if pops > 0 then Registry.add m.Metrics.pool_local_pops_total pops;
          if steals > 0 then Registry.add m.Metrics.pool_steals_total steals
    in
    if t.size = 1 || n = 1 then begin
      (* Sequential fast path: no deques, no locking, exceptions
         propagate as is.  Still counted as local pops of slot 0 so the
         pops + steals = tasks invariant holds at every width. *)
      let t0 = Dbh_obs.Metrics.now () in
      Fun.protect
        ~finally:(fun () ->
          t.busy_t.(0) <- t.busy_t.(0) +. (Dbh_obs.Metrics.now () -. t0))
        (fun () ->
          for i = 0 to n - 1 do
            f i
          done);
      t.pops_t.(0) <- t.pops_t.(0) + n;
      drained ~pops:n ~steals:0
    end
    else begin
      let pops0 = sum_ints t.pops_t and steals0 = sum_ints t.steals_t in
      let deques = place t.size weights in
      let b =
        {
          run = f;
          deques;
          remaining = Atomic.make n;
          cancelled = Atomic.make false;
          failure = Atomic.make None;
        }
      in
      Mutex.lock t.mutex;
      if t.closed then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool: used after shutdown"
      end;
      (match t.batch with
      | Some _ ->
          Mutex.unlock t.mutex;
          invalid_arg "Pool: nested or concurrent batch submission"
      | None -> ());
      t.batch <- Some b;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (match metrics with
      | None -> ()
      | Some m ->
          let gauges = m.Dbh_obs.Metrics.pool_deque_depth in
          Array.iteri
            (fun s d ->
              if s < Array.length gauges then
                Dbh_obs.Registry.set gauges.(s) (Array.length d.tasks))
            deques);
      run_batch t b 0;
      Mutex.lock t.mutex;
      while Atomic.get b.remaining > 0 do
        Condition.wait t.finished t.mutex
      done;
      t.batch <- None;
      Mutex.unlock t.mutex;
      drained ~pops:(sum_ints t.pops_t - pops0) ~steals:(sum_ints t.steals_t - steals0);
      match Atomic.get b.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let check_chunk = function
  | Some c when c < 1 -> invalid_arg "Pool: chunk must be >= 1"
  | _ -> ()

(* Chunk layout is a deterministic function of [n], [chunk] and [cost]
   alone — never of the pool size.  Without a cost estimator the layout
   is the historical fixed-length split (at most 64 chunks).  With one,
   boundaries are placed greedily so each chunk's estimated cost
   approaches total/target: a chunk closes once the running prefix cost
   crosses its proportional quota.  The quota test self-corrects after
   an outsized item (subsequent chunks shrink until the prefix catches
   up), and an explicit [chunk] doubles as a hard cap on chunk length
   so [~chunk:1] always means one item per task. *)
let layout ?chunk ?cost n =
  check_chunk chunk;
  if n <= 0 then ([||], [||])
  else begin
    match cost with
    | None ->
        let c =
          match chunk with Some c -> c | None -> max 1 ((n + 63) / 64)
        in
        let count = (n + c - 1) / c in
        let ranges =
          Array.init count (fun ci ->
              let lo = ci * c in
              (lo, min n (lo + c)))
        in
        (ranges, Array.map (fun (lo, hi) -> hi - lo) ranges)
    | Some cost ->
        let target =
          match chunk with Some c -> (n + c - 1) / c | None -> min n 64
        in
        let cap = match chunk with Some c -> c | None -> max_int in
        let w = Array.init n (fun i -> max 1 (cost i)) in
        let total = Array.fold_left ( + ) 0 w in
        let ranges = ref [] and weights = ref [] in
        let lo = ref 0 and cum = ref 0 and start = ref 0 and produced = ref 0 in
        for i = 0 to n - 1 do
          cum := !cum + w.(i);
          let close =
            i = n - 1
            || i - !lo + 1 >= cap
            || (!produced < target - 1 && !cum * target >= (!produced + 1) * total)
          in
          if close then begin
            ranges := (!lo, i + 1) :: !ranges;
            weights := (!cum - !start) :: !weights;
            lo := i + 1;
            start := !cum;
            incr produced
          end
        done;
        (Array.of_list (List.rev !ranges), Array.of_list (List.rev !weights))
  end

let chunks ?chunk ?cost n = fst (layout ?chunk ?cost n)

(* With no pool each combinator is the plain loop its pooled run must
   equal, and touches neither telemetry nor metrics. *)

let parallel_for ?pool ?chunk ?cost n f =
  check_chunk chunk;
  match pool with
  | None ->
      for i = 0 to n - 1 do
        f i
      done
  | Some t ->
      let ranges, weights = layout ?chunk ?cost n in
      run_tasks t ~weights (fun ci ->
          let lo, hi = ranges.(ci) in
          for i = lo to hi - 1 do
            f i
          done)

let parallel_map_array ?pool ?chunk ?cost f arr =
  check_chunk chunk;
  let n = Array.length arr in
  match pool with
  | None -> Array.map f arr
  | Some _ when n = 0 -> [||]
  | Some _ ->
      (* Seed the result with element 0 so no dummy value is needed; [f]
         is applied exactly once per element either way.  The remaining
         loop runs over shifted indices, so the cost estimator shifts
         with it. *)
      let out = Array.make n (f arr.(0)) in
      let cost = Option.map (fun c i -> c (i + 1)) cost in
      parallel_for ?pool ?chunk ?cost (n - 1) (fun i -> out.(i + 1) <- f arr.(i + 1));
      out

let map_reduce_chunks ?pool ?chunk ?cost n ~map ~fold ~init =
  let ranges, weights = layout ?chunk ?cost n in
  match pool with
  | None ->
      (* Same layout, each chunk folded as soon as it is mapped: the
         same grouping as the pooled merge, one chunk live at a time. *)
      Array.fold_left (fun acc (lo, hi) -> fold acc (map ~lo ~hi)) init ranges
  | Some t ->
      let results = Array.make (Array.length ranges) None in
      run_tasks t ~weights (fun ci ->
          let lo, hi = ranges.(ci) in
          results.(ci) <- Some (map ~lo ~hi));
      (* Merge strictly in chunk order: bit-identical for any pool size. *)
      Array.fold_left
        (fun acc r -> match r with Some c -> fold acc c | None -> acc)
        init results
