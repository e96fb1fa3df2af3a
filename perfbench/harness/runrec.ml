(* What a result was measured on: processor counts, the OCaml version,
   the program's revision, where the durable directories live, and a
   fixed CPU probe timed at both ends of the run so drift in machine
   speed shows beside the metrics.  The probe is recorded only; it never
   scales a metric. *)

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Some (String.trim (input_line ic)))
  with _ -> None

let read_lines path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
        go [])
  with Sys_error _ -> []

let nproc () = Domain.recommended_domain_count ()

(* Cores the cgroup CPU quota allows, rounded up: cgroup v2 cpu.max, else
   v1 cfs quota/period; None when unlimited or unreadable. *)
let cgroup_cores () =
  let of_ratio quota period =
    match (int_of_string_opt quota, int_of_string_opt period) with
    | Some q, Some p when q > 0 && p > 0 -> Some (max 1 ((q + p - 1) / p))
    | _ -> None
  in
  match read_first_line "/sys/fs/cgroup/cpu.max" with
  | Some line -> (
      match String.split_on_char ' ' line with
      | [ quota; period ] when quota <> "max" -> of_ratio quota period
      | _ -> None)
  | None -> (
      match
        ( read_first_line "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
          read_first_line "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
      with
      | Some q, Some p -> of_ratio q p
      | _ -> None)

let effective_cores () =
  match cgroup_cores () with Some c -> min c (nproc ()) | None -> nproc ()

(* Filesystem type of the mount holding [dir] (longest mount-point
   prefix in /proc/self/mountinfo). *)
let filesystem dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let best = ref ("", "unknown") in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | _ :: _ :: _ :: _ :: mount :: rest -> (
          let rec after_dash = function "-" :: fs :: _ -> Some fs | _ :: r -> after_dash r | [] -> None in
          match after_dash rest with
          | Some fs ->
              let prefix = if mount = "/" then "/" else mount ^ "/" in
              let inside = path = mount || String.starts_with ~prefix path in
              if inside && String.length mount > String.length (fst !best) then best := (mount, fs)
          | None -> ())
      | _ -> ())
    (read_lines "/proc/self/mountinfo");
  snd !best

let git_rev () =
  if not (Sys.file_exists ".git") then "none (not a git checkout)"
  else
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> String.trim line | _ -> "unknown"

(* Digest of every source file under [dir] (sorted paths and contents):
   identifies the program when the checkout carries no git metadata. *)
let source_digest dir =
  let rec files d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  if not (Sys.file_exists dir) then "none"
  else
    Digest.to_hex
      (Digest.string
         (String.concat "\000"
            (List.concat_map (fun p -> [ p; Digest.to_hex (Digest.file p) ]) (files dir))))

(* A fixed probe, timed in milliseconds: a floating-point
   dynamic-programming table that stays in cache.  It allocates a few
   kilobytes, so it leaves the reported peak RSS to the workload. *)
let calibration_ms () =
  let n = 256 in
  let a = Array.init n (fun i -> sin (float_of_int i)) in
  let b = Array.init n (fun i -> cos (float_of_int i)) in
  let row = Array.make (n + 1) 0. and prev = Array.make (n + 1) 0. in
  let t0 = Clock.now_ns () in
  let acc = ref 0. in
  for _ = 1 to 40 do
    Array.fill prev 0 (n + 1) infinity;
    prev.(0) <- 0.;
    for i = 1 to n do
      row.(0) <- infinity;
      for j = 1 to n do
        let c = Float.abs (a.(i - 1) -. b.(j - 1)) in
        row.(j) <- c +. Float.min prev.(j - 1) (Float.min prev.(j) row.(j - 1))
      done;
      Array.blit row 0 prev 0 (n + 1)
    done;
    acc := !acc +. prev.(n)
  done;
  let ms = float_of_int (Clock.now_ns () - t0) *. 1e-6 in
  if Float.is_nan !acc then invalid_arg "calibration";
  ms

let peak_rss_mb () =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> ( match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
      | _ -> acc)
    0. (read_lines "/proc/self/status")
