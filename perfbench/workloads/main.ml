(* Benchmark entry point:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   Prints the run record as one JSON line, then, as the last line of
   standard output, the result object (correct, attempted, failed and
   the metrics of the mode).
   Any failure exits non-zero without a result line. *)

open Perfbench_harness

let workloads = [ ("dtw-query", Dtw_query.run); ("l2-ingest", L2_ingest.run); ("l2-serve", L2_serve.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (dtw-query|l2-ingest|l2-serve) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let seconds = int_arg "--seconds" and seed = int_arg "--seed" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let ctx = { Common.workload; seed; seconds = float_of_int seconds; trace } in
  (* Read before a workload pins itself to fewer CPUs. *)
  let nproc = Runrec.nproc () and effective_cores = Runrec.effective_cores () in
  let calib_start = Runrec.calibration_ms () in
  match
    let ok, attempted, failed = run ctx in
    Spec.result ~trace ~correct:ok ~attempted ~failed !Common.metrics
  with
  | exception e ->
      Printf.eprintf "perfbench %s: %s\n%!" workload (Printexc.to_string e);
      exit 1
  | result ->
      let calib_end = Runrec.calibration_ms () in
      let record =
        Json.Obj
          ([
             ("workload", Json.Str workload);
             ("seed", Json.Num (float_of_int seed));
             ("seconds", Json.Num (float_of_int seconds));
             ("trace", Json.Bool trace);
             ("nproc", Json.Num (float_of_int nproc));
             ("effective_cores", Json.Num (float_of_int effective_cores));
             ("ocaml_version", Json.Str Sys.ocaml_version);
             ("git_rev", Json.Str (Runrec.git_rev ()));
             ("lib_source_digest", Json.Str (Runrec.source_digest "lib"));
             ("calibration_ms", Json.Obj [ ("start", Json.Num calib_start); ("end", Json.Num calib_end) ]);
             ( "percentile_samples",
               Json.Obj (List.rev_map (fun (k, n) -> (k, Json.Num (float_of_int n))) !Common.samples) );
             ("metrics", Spec.metric_obj (List.rev !Common.metrics));
           ]
          @ List.rev !Common.record)
      in
      print_endline (Json.to_string (Json.Obj [ ("record", record) ]));
      print_endline (Json.to_string result)
