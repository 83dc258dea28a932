(* Shared measurement campaigns: each (workload x mode) simulation runs
   once per harness invocation and its Result feeds every figure that
   needs it. *)

module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Result = Workload.Result
module Profile = Workload.Profile

let modes =
  [
    Runtime.Baseline;
    Runtime.Safe Revoker.Paint_sync;
    Runtime.Safe Revoker.Cherivoke;
    Runtime.Safe Revoker.Cornucopia;
    Runtime.Safe Revoker.Reloaded;
  ]

let safe_modes = List.tl modes
let mode_names = List.map Runtime.mode_name modes

type t = {
  scale : float;
  seed : int;
  jobs : int; (* domain-parallel fan-out width for independent cells *)
  interp : Workload.Spec.interp; (* spec cells only; simulated results identical *)
  spec : (string * string, Result.t) Hashtbl.t; (* (workload, mode) *)
  interactive : (string * string, Result.t) Hashtbl.t;
  mutable spec_done : bool;
  mutable pgbench_done : bool;
  mutable grpc_done : bool;
}

let create ?jobs ?(interp = Workload.Spec.Compiled) ~scale ~seed () =
  {
    scale;
    seed;
    jobs = (match jobs with Some j -> max 1 j | None -> Parallel.Pool.default_jobs ());
    interp;
    spec = Hashtbl.create 64;
    interactive = Hashtbl.create 16;
    spec_done = false;
    pgbench_done = false;
    grpc_done = false;
  }

let jobs t = t.jobs
let progress fmt = Format.eprintf fmt

(* Fan a list of independent (key, run) cells across domains. Workers
   are silent; results are stored (and progress printed) from the
   calling domain in submission order, so every table is filled
   identically for any [t.jobs]. *)
let run_cells t table cells =
  List.iter2
    (fun (key, _) r -> Hashtbl.replace table key r)
    cells
    (Parallel.Pool.map ~jobs:t.jobs (fun (_key, run) -> run ()) cells)

let ensure_spec t =
  if not t.spec_done then begin
    let cells =
      List.concat_map
        (fun (p : Profile.t) ->
          List.map
            (fun mode ->
              ( (p.Profile.name, Runtime.mode_name mode),
                fun () ->
                  Workload.Spec.run ~seed:t.seed ~ops_scale:t.scale
                    ~interp:t.interp ~mode p ))
            modes)
        Profile.spec_all
    in
    progress "  [spec] %d cells (%d profiles x %d modes), %d jobs@."
      (List.length cells) (List.length Profile.spec_all) (List.length modes)
      t.jobs;
    run_cells t t.spec cells;
    t.spec_done <- true
  end

let ensure_pgbench t =
  if not t.pgbench_done then begin
    let config =
      {
        Workload.Pgbench.default_config with
        Workload.Pgbench.transactions =
          int_of_float (6000.0 *. t.scale) |> max 1500;
        seed = t.seed;
      }
    in
    progress "  [pgbench] %d modes, %d jobs@." (List.length modes) t.jobs;
    run_cells t t.interactive
      (List.map
         (fun mode ->
           ( ("pgbench", Runtime.mode_name mode),
             fun () -> Workload.Pgbench.run ~config ~mode () ))
         modes);
    t.pgbench_done <- true
  end

let ensure_grpc t =
  if not t.grpc_done then begin
    let config =
      {
        Workload.Grpc.default_config with
        Workload.Grpc.messages = int_of_float (24000.0 *. t.scale) |> max 6000;
        seed = t.seed;
      }
    in
    progress "  [grpc] %d modes, %d jobs@." (List.length modes) t.jobs;
    run_cells t t.interactive
      (List.map
         (fun mode ->
           ( ("grpc_qps", Runtime.mode_name mode),
             fun () -> Workload.Grpc.run ~config ~mode () ))
         modes);
    t.grpc_done <- true
  end

let spec t ~workload ~mode =
  ensure_spec t;
  Hashtbl.find t.spec (workload, mode)

let interactive t ~workload ~mode =
  (match workload with
  | "pgbench" -> ensure_pgbench t
  | "grpc_qps" -> ensure_grpc t
  | _ -> invalid_arg "Campaign.interactive");
  Hashtbl.find t.interactive (workload, mode)

let spec_names = List.map (fun p -> p.Profile.name) Profile.spec_all
let revoking_names = List.map (fun p -> p.Profile.name) Profile.spec_revoking

let overhead_pct ~test ~base =
  (float_of_int test /. float_of_int base -. 1.0) *. 100.0

let ratio ~test ~base = float_of_int test /. float_of_int base

(* latency percentile helper *)
let pct (r : Result.t) q =
  Stats.Summary.percentile (Array.to_list r.Result.latencies_us) q

(* Tail of a latency-bearing record through the log-bucketed histogram —
   the same recorder a production server would use — rather than the
   exact sorted-array percentile, so dashboard rows match what a
   constant-memory collector on real hardware reports. Batch records
   have no samples and report 0. *)
let hist_tail (r : Result.t) q =
  if Array.length r.Result.latencies_us = 0 then 0.0
  else begin
    let h = Stats.Histogram.create () in
    Array.iter (Stats.Histogram.record h) r.Result.latencies_us;
    Stats.Histogram.percentile h q
  end

(* One flat record per (workload x mode) run, for machine-readable
   output: overheads are against the same workload's Baseline run, and
   the pause tail is the p99 of per-epoch world-stopped durations. Every
   record carries the PRNG seed and the fault-schedule id so a dashboard
   row is reproducible from the record alone; the harness never arms a
   chaos schedule, so its schedule id is 0 (the field aligns these
   records with ccr_chaos output, where it is nonzero). Each cell
   simulates one machine: the schema fields are the single-host ones. *)
let record_of ~workload ~mode ~base ~seed (r : Result.t) =
  let pauses =
    List.map (fun p -> float_of_int p.Revoker.stw_cycles) r.Result.phases
  in
  Cli.Json.(
    Obj
      ([ ("strategy", String mode); ("profile", String workload) ]
      @ schema ()
      @ [
          ("seed", Int seed);
          ("fault_schedule", Int 0);
          ("cycles", Int r.Result.wall_cycles);
          ("overhead_pct", Float (4, overhead_pct ~test:r.Result.wall_cycles ~base));
          ( "pause_p99",
            Float (1, if pauses = [] then 0.0 else Stats.Summary.percentile pauses 99.0) );
          ( "abandoned_bytes",
            Int (match r.Result.mrs with Some s -> s.Ccr.Mrs.abandoned_bytes | None -> 0) );
          (* request-latency tail, µs; 0 for batch records *)
          ("lat_p99_us", Float (3, hist_tail r 99.0));
          ("lat_p999_us", Float (3, hist_tail r 99.9));
        ]))

let json_records t =
  ensure_spec t;
  ensure_pgbench t;
  ensure_grpc t;
  let specs =
    List.concat_map
      (fun workload ->
        let base =
          (Hashtbl.find t.spec (workload, "baseline")).Result.wall_cycles
        in
        List.map
          (fun mode ->
            record_of ~workload ~mode ~base ~seed:t.seed
              (Hashtbl.find t.spec (workload, mode)))
          mode_names)
      spec_names
  in
  let interactive =
    List.concat_map
      (fun workload ->
        let base =
          (Hashtbl.find t.interactive (workload, "baseline")).Result.wall_cycles
        in
        List.map
          (fun mode ->
            record_of ~workload ~mode ~base ~seed:t.seed
              (Hashtbl.find t.interactive (workload, mode)))
          mode_names)
      [ "pgbench"; "grpc_qps" ]
  in
  specs @ interactive

(* median over per-epoch phase records *)
let phase_median records f =
  match records with
  | [] -> 0.0
  | rs -> Stats.Summary.percentile (List.map (fun r -> float_of_int (f r)) rs) 50.0
