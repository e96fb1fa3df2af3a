(* Pins the benchmark's threads to CPUs.  Two vCPUs of a shared host run
   at different, independently moving speeds, so the reference unit that
   measures speed ([Pace]) must run on the CPU that does the measured
   work. *)

external allowed_cpu : int -> int = "perfbench_allowed_cpu" [@@noalloc]
external pin_thread : int -> int -> int = "perfbench_pin_thread" [@@noalloc]

(* CPUs the calling thread may run on, lowest first. *)
let allowed () =
  let rec go i acc = match allowed_cpu i with -1 -> List.rev acc | c -> go (i + 1) (c :: acc) in
  go 0 []

(* Thread ids of this process. *)
let tasks () =
  try List.filter_map int_of_string_opt (Array.to_list (Sys.readdir "/proc/self/task")) with Sys_error _ -> []

(* Pins one thread (or a single-threaded child process) to [cpu]. *)
let pin tid cpu = pin_thread tid cpu = 0

(* Pins every thread of the process to [cpu]; threads, domains and
   children started later inherit it. *)
let pin_process cpu = List.for_all (fun t -> pin t cpu) (tasks ())

(* CPU clock ticks a thread has used (user + system), from
   /proc/self/task/TID/stat; 0 if unreadable. *)
let ticks tid =
  match In_channel.with_open_text (Printf.sprintf "/proc/self/task/%d/stat" tid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | s -> (
      (* Fields after the parenthesised command name start at field 3. *)
      let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
      match List.filteri (fun i _ -> i = 11 || i = 12) (String.split_on_char ' ' rest) with
      | [ u; st ] -> (try int_of_string u + int_of_string st with Failure _ -> 0)
      | _ -> 0)

(* The thread, other than [except], that has used the most CPU. *)
let busiest ~except =
  List.fold_left
    (fun best t -> if t = except then best else match best with Some (_, b) when b >= ticks t -> best | _ -> Some (t, ticks t))
    None (tasks ())
  |> Option.map fst

external sched_idle_stub : unit -> int = "perfbench_sched_idle" [@@noalloc]

(* Puts the calling thread in the idle scheduling class. *)
let sched_idle () = sched_idle_stub () = 0
