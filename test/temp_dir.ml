(* Per-case temporary directories for the tests that write files.
   [with_dir prefix f] creates [<tmp>/dbh-<prefix>-<pid>-<n>], passes it
   to [f] and removes it with everything inside however [f] ends, so a
   test executable run directly leaves nothing behind in the temporary
   directory. *)

let counter = Atomic.make 0

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbh-%s-%d-%d" prefix (Unix.getpid ()) (Atomic.fetch_and_add counter 1))
  in
  Unix.mkdir dir 0o755;
  (* A failed removal must not mask the case's own failure. *)
  Fun.protect
    ~finally:(fun () -> try remove dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)
