(* The l2-serve load generator: a process forked before any domain
   exists, driving seeded open-loop pipelined searches over one
   connection.  Each request is charged from its due time, however late
   the send left; the loop blocks in select between sends and replies,
   so it never spins on a core the server needs. *)

module Client = Dbh_serve.Client
module Protocol = Dbh_serve.Protocol
open Perfbench_harness

type phase = {
  port : int;  (* connected on the first phase, kept for the rest *)
  t0 : float;  (* absolute start of the schedule *)
  due : float array;  (* offsets from [t0] *)
  payload : int array;  (* query index per request *)
  budget : int;
  deadline_ms : int;
  grace : float;  (* seconds past the last due time before giving up *)
}

type reply =
  | Answer of { handle : int; dist : float; cost : int; truncated : bool }
  | Not_found
  | Shed
  | Timed_out
  | Error of string

type outcome = {
  sent : float array;  (* absolute send times, nan if never sent *)
  recv : float array;  (* absolute reply times, nan if no reply *)
  ids : int64 array;  (* correlation ids *)
  replies : reply array;
}

let reply_of = function
  | Protocol.Result { found = true; handle; dist; cost; truncated } -> Answer { handle; dist; cost; truncated }
  | Protocol.Result { found = false; _ } -> Not_found
  | Protocol.Overloaded _ -> Shed
  | Protocol.Timed_out -> Timed_out
  | r -> Error (Format.asprintf "%a" Protocol.pp_response r)

let run_phase conn payloads p =
  let n = Array.length p.due in
  let sent = Array.make n Float.nan and recv = Array.make n Float.nan in
  let ids = Array.make n 0L and replies = Array.make n (Error "no reply") in
  let pending = Hashtbl.create 1024 in
  let next = ref 0 in
  let give_up = p.t0 +. (if n = 0 then 0. else p.due.(n - 1)) +. p.grace in
  (try
     while (!next < n || Hashtbl.length pending > 0) && Clock.now_s () < give_up do
       let now = Clock.now_s () in
       if !next < n && p.t0 +. p.due.(!next) <= now then begin
         let i = !next in
         let id =
           Client.send conn
             (Protocol.Search
                { tenant = ""; deadline_ms = p.deadline_ms; budget = p.budget; probes = 0; radius = 0;
                  payload = payloads.(p.payload.(i)) })
         in
         sent.(i) <- Clock.now_s ();
         ids.(i) <- id;
         Hashtbl.replace pending id i;
         incr next
       end
       else if Client.readable conn then begin
         let id, resp = Client.recv conn in
         match Hashtbl.find_opt pending id with
         | Some i ->
             Hashtbl.remove pending id;
             recv.(i) <- Clock.now_s ();
             replies.(i) <- reply_of resp
         | None -> ()
       end
       else
         (* Block until a reply arrives or the next request is due. *)
         let until = if !next < n then p.t0 +. p.due.(!next) else give_up in
         ignore (Client.readable ~timeout:(Float.max 0. (Float.min (until -. now) 0.05)) conn)
     done
   with e ->
     let msg = Printexc.to_string e in
     Hashtbl.iter (fun _ i -> replies.(i) <- Error msg) pending);
  { sent; recv; ids; replies }

(* Fork the generator.  Returns a function running one phase in the
   child, a function stopping it (and waiting for it), and its pid. *)
let spawn ~payloads =
  let p2c_r, p2c_w = Unix.pipe ~cloexec:false () in
  let c2p_r, c2p_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close p2c_w;
      Unix.close c2p_r;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let inc = Unix.in_channel_of_descr p2c_r and outc = Unix.out_channel_of_descr c2p_w in
      let conn = ref None in
      let rec loop () =
        match (Marshal.from_channel inc : phase option) with
        | None -> ()
        | Some p ->
            let c =
              match !conn with
              | Some c -> c
              | None ->
                  let c = Client.connect ~deadline:5. ~host:"127.0.0.1" ~port:p.port () in
                  conn := Some c;
                  c
            in
            Marshal.to_channel outc (run_phase c payloads p) [];
            flush outc;
            loop ()
      in
      let code = try loop (); 0 with _ -> 1 in
      Option.iter Client.close !conn;
      Unix._exit code
  | pid ->
      Unix.close p2c_r;
      Unix.close c2p_w;
      let to_child = Unix.out_channel_of_descr p2c_w and from_child = Unix.in_channel_of_descr c2p_r in
      let run p =
        Marshal.to_channel to_child (Some p) [];
        flush to_child;
        (Marshal.from_channel from_child : outcome)
      in
      let stop () =
        (try
           Marshal.to_channel to_child (None : phase option) [];
           flush to_child
         with Sys_error _ -> ());
        close_out_noerr to_child;
        close_in_noerr from_child;
        ignore (Unix.waitpid [] pid)
      in
      (run, stop, pid)
