(* A forked process that keeps one CPU busy at idle priority.  Any
   thread of the benchmark that wakes on that CPU preempts it at once, so
   it takes no time from the work; meanwhile the CPU never halts, so a
   request that wakes a thread there does not also wait for the host to
   wake the vCPU: that wait is the host's latency, not the program's, and
   it moved the raw l2-serve p50 by a third between runs. *)

type t = { pid : int; cmd : Unix.file_descr; res : in_channel }

(* Forks the spinner, idle until [start].  Call it before any domain is
   spawned. *)
let spawn () =
  let p2c_r, p2c_w = Unix.pipe ~cloexec:false () in
  let c2p_r, c2p_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close p2c_w;
      Unix.close c2p_r;
      let ok = Affinity.sched_idle () in
      (* A small minor heap, so its churn stays out of the caches the
         work uses. *)
      Gc.set { (Gc.get ()) with minor_heap_size = 32768 };
      let out = Unix.out_channel_of_descr c2p_w in
      output_byte out (if ok then 1 else 0);
      flush out;
      let byte = Bytes.create 1 in
      let command () = match Unix.read p2c_r byte 0 1 with 0 -> 'q' | _ -> Bytes.get byte 0 in
      let pending () = match Unix.select [ p2c_r ] [] [] 0. with [], _, _ -> false | _ -> true in
      let rec loop () =
        match command () with
        | 's' ->
            while not (pending ()) do Pace.reference () done;
            if command () = 't' then begin
              output_byte out 0;
              flush out;
              loop ()
            end
        | _ -> ()
      in
      (try loop () with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close p2c_r;
      Unix.close c2p_w;
      let res = Unix.in_channel_of_descr c2p_r in
      if input_byte res <> 1 then failwith "spinner: cannot enter the idle scheduling class";
      { pid; cmd = p2c_w; res }

let send t c = ignore (Unix.write_substring t.cmd (String.make 1 c) 0 1)

(* Starts spinning; [stop] returns once the spinner has stopped. *)
let start t = send t 's'

let stop t =
  send t 't';
  ignore (input_byte t.res)

(* Ends the process and waits for it. *)
let close t =
  (try send t 'q' with Unix.Unix_error _ -> ());
  (try Unix.close t.cmd with Unix.Unix_error _ -> ());
  close_in_noerr t.res;
  ignore (Unix.waitpid [] t.pid)
