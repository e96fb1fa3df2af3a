(* dbh-serve: the network tier over a sharded durable DBH index.

   Opens (or bootstraps) N durable shards under DIR, binds the framed
   TCP endpoint plus a Prometheus /metrics listener, and serves until
   SIGTERM/SIGINT — then drains gracefully: stop accepting, shed new
   work with OVERLOADED, finish the admitted queue, checkpoint every
   shard, exit 0. *)

module Rng = Dbh_util.Rng
module Binio = Dbh_util.Binio
module Serve = Dbh_serve

let encode_vec (v : float array) =
  let buf = Buffer.create 64 in
  Binio.write_float_array buf v;
  Buffer.contents buf

let decode_vec s =
  let r = Binio.reader s in
  let v = Binio.read_float_array r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in vector");
  v

let builder_config ~pivots ~sample_queries =
  { Dbh.Builder.default_config with num_pivots = pivots; num_sample_queries = sample_queries }

let parse_tenant spec =
  (* "gold=200:100:80000" → class gold, rate 200/s, burst 100, budget cap *)
  match String.split_on_char '=' spec with
  | [ name; params ] -> (
      match String.split_on_char ':' params with
      | [ rate; burst; max_budget ] ->
          ( name,
            {
              Serve.Admission.rate = float_of_string rate;
              burst = float_of_string burst;
              max_budget = int_of_string max_budget;
            } )
      | _ -> failwith ("bad tenant spec (want name=rate:burst:max_budget): " ^ spec))
  | _ -> failwith ("bad tenant spec (want name=rate:burst:max_budget): " ^ spec)

let run dir port metrics_port shards domains seed db_size dim no_fsync
    queue_capacity default_deadline_ms max_deadline_ms rate burst max_budget
    tenants batch_max idle_timeout drain_timeout =
  let tenants =
    try List.map parse_tenant tenants
    with Failure msg ->
      Printf.eprintf "dbh-serve: %s\n" msg;
      exit 2
  in
  let admission =
    {
      Serve.Admission.queue_capacity;
      default_deadline = float_of_int default_deadline_ms /. 1000.;
      max_deadline = float_of_int max_deadline_ms /. 1000.;
      default_class = { Serve.Admission.rate; burst; max_budget };
      classes = tenants;
    }
  in
  let config =
    {
      Serve.Server.default_config with
      port;
      metrics_port = (if metrics_port < 0 then None else Some metrics_port);
      admission;
      batch_max;
      idle_timeout;
      drain_timeout;
    }
  in
  let data =
    if db_size <= 0 then None
    else begin
      let rng = Rng.create (seed + 1) in
      let d, _ =
        Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim db_size
      in
      Some d
    end
  in
  let run_with pool =
    let index, recoveries =
      Serve.Shards.open_or_create ~fsync:(not no_fsync)
        ~build:(builder_config ~pivots:50 ~sample_queries:100)
        ~seed ~shards ~target_accuracy:0.9 ~space:Dbh_metrics.Minkowski.l2_space
        ~encode:encode_vec ~decode:decode_vec ~dir ?data ()
    in
    Array.iteri
      (fun i (r : Dbh.Online.Durable.recovery) ->
        Printf.printf "shard %02d : %s generation %d, %d ops replayed%s\n" i
          (match r.source with
          | `Fresh -> "fresh build,"
          | `Snapshot g -> Printf.sprintf "recovered from snapshot %d," g
          | `Rebuilt -> "rebuilt from data,")
          r.generation r.replayed_ops
          (if r.torn_tail then " (torn log tail truncated)" else ""))
      recoveries;
    let srv = Serve.Server.start ?pool ~decode:decode_vec config index in
    Printf.printf "listening: %s:%d (%d shards, %d objects, %d domains)\n"
      config.host (Serve.Server.port srv) shards (Serve.Shards.size index)
      domains;
    (match Serve.Server.metrics_port srv with
    | Some p -> Printf.printf "metrics  : http://%s:%d/metrics\n" config.host p
    | None -> ());
    print_string "ready\n";
    flush stdout;
    let stop = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    while not (Atomic.get stop) do
      Unix.sleepf 0.1
    done;
    Printf.printf "draining : finishing admitted work, then checkpointing\n%!";
    Serve.Server.stop srv;
    Printf.printf "stopped  : all shards checkpointed and closed\n%!";
    0
  in
  if domains > 1 then
    Dbh_util.Pool.with_pool ~domains (fun pool -> run_with (Some pool))
  else run_with None

open Cmdliner

let dir_arg =
  let doc = "Durable index directory; shards live in DIR/shard-NN." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let port_arg =
  let doc = "TCP port to serve on (0 = ephemeral)." in
  Arg.(value & opt int 7471 & info [ "port" ] ~docv:"PORT" ~doc)

let metrics_port_arg =
  let doc = "Prometheus /metrics port (0 = ephemeral, negative = disabled)." in
  Arg.(value & opt int 7472 & info [ "metrics-port" ] ~docv:"PORT" ~doc)

let shards_arg =
  let doc = "In-process shards (each its own durable directory and breaker)." in
  Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Domains for fanning searches across shards (1 = sequential). The server fans out \
     only on a machine with at least N + 1 cores."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for fresh builds." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let db_size_arg =
  let doc = "Bootstrap a fresh directory with this many synthetic vectors (ignored when snapshots exist)." in
  Arg.(value & opt int 1000 & info [ "n"; "db-size" ] ~docv:"N" ~doc)

let dim_arg =
  let doc = "Dimensionality of bootstrap vectors." in
  Arg.(value & opt int 16 & info [ "dim" ] ~docv:"D" ~doc)

let no_fsync_arg =
  let doc = "Skip per-operation fsync (faster, loses the power-failure guarantee)." in
  Arg.(value & flag & info [ "no-fsync" ] ~doc)

let queue_capacity_arg =
  let doc = "Admission queue capacity; beyond it requests are shed with OVERLOADED." in
  Arg.(value & opt int 512 & info [ "queue-capacity" ] ~docv:"N" ~doc)

let default_deadline_arg =
  let doc = "Deadline granted to requests that carry none, milliseconds." in
  Arg.(value & opt int 1000 & info [ "default-deadline-ms" ] ~docv:"MS" ~doc)

let max_deadline_arg =
  let doc = "Hard cap on client deadlines, milliseconds." in
  Arg.(value & opt int 30000 & info [ "max-deadline-ms" ] ~docv:"MS" ~doc)

let rate_arg =
  let doc = "Default tenant class: admissions per second (shared by all unconfigured tenants)." in
  Arg.(value & opt float 500. & info [ "rate" ] ~docv:"QPS" ~doc)

let burst_arg =
  let doc = "Default tenant class: token burst." in
  Arg.(value & opt float 250. & info [ "burst" ] ~docv:"N" ~doc)

let max_budget_arg =
  let doc = "Default tenant class: cap on one query's distance budget." in
  Arg.(value & opt int 50000 & info [ "max-budget" ] ~docv:"N" ~doc)

let tenant_arg =
  let doc =
    "Add a tenant class with its own token bucket: $(b,name=rate:burst:max_budget).  \
     Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "tenant" ] ~docv:"SPEC" ~doc)

let batch_max_arg =
  let doc = "Micro-batch size cap for the execution worker." in
  Arg.(value & opt int 32 & info [ "batch-max" ] ~docv:"N" ~doc)

let idle_timeout_arg =
  let doc = "Seconds before an idle or slow-loris connection is killed." in
  Arg.(value & opt float 10. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let drain_timeout_arg =
  let doc = "Seconds graceful shutdown waits for the queue before shedding it." in
  Arg.(value & opt float 5. & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)

let cmd =
  let doc =
    "overload-safe network tier for a sharded durable DBH index: framed TCP \
     protocol, per-tenant admission control, deadline-derived budgets, \
     Prometheus metrics, graceful drain on SIGTERM"
  in
  Cmd.v
    (Cmd.info "dbh-serve" ~version:"1.0.0" ~doc)
    Term.(
      const run $ dir_arg $ port_arg $ metrics_port_arg $ shards_arg
      $ domains_arg $ seed_arg $ db_size_arg $ dim_arg $ no_fsync_arg
      $ queue_capacity_arg $ default_deadline_arg $ max_deadline_arg $ rate_arg
      $ burst_arg $ max_budget_arg $ tenant_arg $ batch_max_arg
      $ idle_timeout_arg $ drain_timeout_arg)

let () = exit (Cmd.eval' cmd)
