(* In-memory spans recorded by the benchmark around its own calls into
   the library.  A span has a name, a start, an end, a parent and a
   request id; its distance-call children are not stored one by one but
   summed from the distance meter's totals between open and close, so a
   layer's self time is its duration minus that sum.  Spans are written
   out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 at the root *)
  start_ns : int;
  mutable stop_ns : int;
  mutable dist : Dist_meter.totals;  (* distance children *)
}

type t = {
  snapshot : unit -> Dist_meter.totals;
  mutable spans : span list;  (* newest first *)
  mutable count : int;
  mutable open_ : span list;  (* innermost first *)
}

let create ~snapshot () = { snapshot; spans = []; count = 0; open_ = [] }

let open_span t ?(req = -1) name =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.count;
      name;
      req;
      parent;
      start_ns = Clock.now_ns ();
      stop_ns = 0;
      dist = t.snapshot ();
    }
  in
  t.count <- t.count + 1;
  t.open_ <- s :: t.open_;
  s

let close_span t s =
  s.stop_ns <- Clock.now_ns ();
  s.dist <- Dist_meter.diff (t.snapshot ()) s.dist;
  t.open_ <- List.filter (fun o -> o != s) t.open_;
  t.spans <- s :: t.spans

let with_span t ?req name f =
  let s = open_span t ?req name in
  match f () with
  | y ->
      close_span t s;
      y
  | exception e ->
      close_span t s;
      raise e

(* A span timed elsewhere (e.g. by the load-generator process), with no
   distance children in this process. *)
let add t ?(req = -1) ?(parent = -1) name ~start_ns ~stop_ns =
  let s =
    {
      id = t.count;
      name;
      req;
      parent;
      start_ns;
      stop_ns;
      dist = { calls = 0; ns = 0; pivot_calls = 0; pivot_ns = 0; cells = 0 };
    }
  in
  t.count <- t.count + 1;
  t.spans <- s :: t.spans

let duration_ns s = s.stop_ns - s.start_ns
let self_ns s = duration_ns s - s.dist.Dist_meter.ns

let named t name = List.filter (fun s -> s.name = name) (List.rev t.spans)

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "id\tparent\treq\tname\tstart_ns\tstop_ns\tdist_calls\tdist_ns\tpivot_calls\tpivot_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n" s.id s.parent s.req
            s.name s.start_ns s.stop_ns s.dist.calls s.dist.ns s.dist.pivot_calls
            s.dist.pivot_ns)
        (List.rev t.spans))
