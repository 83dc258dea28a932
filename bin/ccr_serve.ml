(* ccr_serve: sweep the open-loop serving workload over offered load ×
   strategy × governor and report the tail. Each run is one simulated
   machine; the JSON output is deterministic (fixed float formats, seed
   recorded) so same-seed reruns are byte-identical.

     dune exec bin/ccr_serve.exe -- --qps 10000,20000,30000 --modes cornucopia,reloaded
     dune exec bin/ccr_serve.exe -- --governor both --json sweep.json
     dune exec bin/ccr_serve.exe -- --check --requests 2000 --qps 15000 *)

open Cmdliner
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Loadgen = Service.Loadgen
module Slo = Service.Slo
module Governor = Service.Governor
module Serve = Workload.Serve

type run_row = {
  r_mode : string;
  r_governed : bool;
  r_qps : float;
  r_outcome : Serve.outcome;
  r_clean : bool; (* sanitizer + race detector + accounting, when --check *)
  r_report : string; (* buffered checker findings; printed by the caller *)
}

let percentile (o : Serve.outcome) p =
  match Slo.percentile o.Serve.slo p with Some v -> v | None -> 0.0

(* One run of the serving workload at one sweep point. Runs on a worker
   domain under --jobs, so it never prints: checker findings go into the
   row's [r_report] buffer and the caller emits them in submission
   order. *)
let run_point ~cfg ~check ~pattern ~mode ~governed ~qps =
  (* the qps axis sets the pattern's mean rate *)
  let cfg = { cfg with Serve.pattern = Loadgen.pattern_at pattern ~qps } in
  let checks = ref None in
  let on_runtime rt =
    if check then checks := Some (Analysis.Check.attach_runtime rt)
  in
  let o = Serve.run ~config:cfg ~on_runtime ~governed ~mode () in
  let shed = o.Serve.shed_depth + o.Serve.shed_deadline in
  let clean, report =
    Analysis.Check.verdict !checks
      ~drift:
        (if
           o.Serve.served + shed = o.Serve.offered
           && o.Serve.offered = cfg.Serve.requests
         then []
         else
           [
             Printf.sprintf
               "ccr_serve: SLO accounting drift: served %d + shed %d <> offered %d"
               o.Serve.served shed o.Serve.offered;
           ])
  in
  {
    r_mode = Runtime.mode_name mode;
    r_governed = governed;
    r_qps = qps;
    r_outcome = o;
    r_clean = clean;
    r_report = report;
  }

let row_record ~pattern ~requests ~servers ~seed ~target r =
  let o = r.r_outcome in
  let gi f =
    Cli.Json.Int (match o.Serve.governor with Some s -> f s | None -> 0)
  in
  Cli.Json.(
    Obj
      ((("workload", String "serve") :: schema ())
      @ [
          ("mode", String r.r_mode);
          ("governor", Bool r.r_governed);
          ("pattern", String pattern);
          ("qps", Float (1, r.r_qps));
          ("requests", Int requests);
          ("servers", Int servers);
          ("seed", Int seed);
          ("target_p99_us", Float (1, target));
          ("p50_us", Float (3, percentile o 50.0));
          ("p99_us", Float (3, percentile o 99.0));
          ("p999_us", Float (3, percentile o 99.9));
          ("offered", Int o.Serve.offered);
          ("served", Int o.Serve.served);
          ("shed_depth", Int o.Serve.shed_depth);
          ("shed_deadline", Int o.Serve.shed_deadline);
          ( "shed_rate",
            Float
              ( 5,
                if o.Serve.offered = 0 then 0.0
                else
                  float_of_int (o.Serve.shed_depth + o.Serve.shed_deadline)
                  /. float_of_int o.Serve.offered ) );
          ("violations", Int (Slo.violations o.Serve.slo));
          ("epochs_deferred", gi (fun s -> s.Governor.epochs_deferred));
          ("epochs_forced", gi (fun s -> s.Governor.epochs_forced));
          ("eager_flushes", gi (fun s -> s.Governor.eager_flushes));
          ("defer_cycles", gi (fun s -> s.Governor.defer_cycles));
          ("quanta_granted", gi (fun s -> s.Governor.quanta_granted));
          ("slo_events", gi (fun s -> s.Governor.slo_events));
          ("epochs", Int (List.length o.Serve.result.Workload.Result.phases));
          ("clg_faults", Int o.Serve.result.Workload.Result.clg_faults);
        ]))

let all_workload_names = "serve (this tool); spec, pgbench, grpc, tenant (ccr_sim)"

let strategy_names =
  String.concat ", "
    (List.map Runtime.mode_name Runtime.all_modes)
  ^ ", safe/cheriot"

let serve modes qpss governed_axis requests servers queue_depth deadline_us
    target_p99 pattern seed json check jobs =
  let cfg =
    {
      Serve.default_config with
      requests;
      servers;
      queue_depth;
      deadline_us;
      target_p99_us = target_p99;
      seed;
    }
  in
  (* Enumerate the sweep points first, then fan the independent
     simulations across domains; Pool.map returns rows in point order,
     so every output below is identical for any --jobs. *)
  let points =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun qps ->
            List.filter_map
              (fun governed ->
                (* a governor needs a revoker: skip governed Baseline *)
                if governed && mode = Runtime.Baseline then None
                else Some (mode, qps, governed))
              governed_axis)
          qpss)
      modes
  in
  let rows =
    Parallel.Pool.map ~jobs
      (fun (mode, qps, governed) ->
        run_point ~cfg ~check ~pattern ~mode ~governed ~qps)
      points
  in
  Format.printf "%-12s %-4s %9s %9s %10s %10s %7s %6s %6s@." "mode" "gov"
    "qps" "p50us" "p99us" "p99.9us" "shed%" "defer" "force";
  List.iter
    (fun r ->
      let o = r.r_outcome in
      Format.printf "%-12s %-4s %9.0f %9.1f %10.1f %10.1f %6.2f%% %6d %6d@."
        r.r_mode
        (if r.r_governed then "on" else "off")
        r.r_qps (percentile o 50.0) (percentile o 99.0) (percentile o 99.9)
        (100.0
        *. float_of_int (o.Serve.shed_depth + o.Serve.shed_deadline)
        /. float_of_int (max o.Serve.offered 1))
        (match o.Serve.governor with
        | Some g -> g.Governor.epochs_deferred
        | None -> 0)
        (match o.Serve.governor with
        | Some g -> g.Governor.epochs_forced
        | None -> 0))
    rows;
  Cli.write_records json
    (List.map
       (row_record ~pattern ~requests ~servers ~seed ~target:target_p99)
       rows);
  Cli.check_epilogue ~check ~what:"runs"
    (List.map (fun r -> (r.r_clean, r.r_report)) rows)

let main =
  let modes =
    Arg.(
      value
      & opt (Cli.list Cli.mode)
          [ Runtime.Safe Revoker.Cornucopia; Runtime.Safe Revoker.Reloaded ]
      & info [ "modes"; "m" ]
          ~doc:
            (Printf.sprintf
               "Comma-separated temporal-safety modes to sweep. Known modes: \
                %s." strategy_names))
  in
  let qps =
    Arg.(
      value
      & opt (Cli.list Cli.pos_float) [ 60_000.0; 90_000.0; 110_000.0 ]
      & info [ "qps" ]
          ~doc:
            "Comma-separated offered loads (requests/second). The default \
             sweep spans the two-server knee: ~60k is comfortable, ~110k \
             is near saturation, where Cornucopia's stop-the-world \
             re-sweep detonates the p99.9.")
  in
  let governor =
    Arg.(
      value & opt Cli.governor_axis [ false; true ]
      & info [ "governor"; "g" ]
          ~doc:
            "Governor axis: $(b,on), $(b,off) or $(b,both). Governor \
             policies: off = policy-triggered epochs, unpaced sweeps; on = \
             SLO governor (epoch deferral into load troughs, forced release \
             on quarantine pressure, quantum-paced concurrent sweeps, eager \
             trough flushes).")
  in
  let requests =
    Arg.(
      value & opt Cli.pos_int 6_000
      & info [ "requests"; "n" ] ~doc:"Requests per run.")
  in
  let servers =
    Arg.(
      value & opt Cli.pos_int 2 & info [ "servers" ] ~doc:"Server worker threads.")
  in
  let queue_depth =
    Arg.(
      value & opt Cli.pos_int 64
      & info [ "queue-depth" ] ~doc:"Admission-control queue bound.")
  in
  let deadline =
    Arg.(
      value
      & opt (some Cli.pos_float) None
      & info [ "deadline-us" ]
          ~doc:"Shed requests whose queueing delay exceeds $(docv) µs.")
  in
  let target =
    Arg.(
      value & opt Cli.pos_float 1_000.0
      & info [ "target-p99-us" ] ~doc:"SLO target fed to the governor.")
  in
  let pattern =
    Arg.(
      value
      & opt Cli.pattern "poisson"
      & info [ "pattern" ]
          ~doc:
            "Arrival pattern at each sweep point: $(b,poisson), \
             $(b,bursty), $(b,ramp) or $(b,diurnal). The qps axis sets \
             the pattern's mean rate, so sweep points stay comparable \
             across patterns.")
  in
  let json = Cli.json ~doc:"Write per-run JSON records to $(docv)." in
  let check =
    Cli.check
      ~doc:
        "Attach the protocol sanitizer and race detector to every run, and \
         verify exact SLO accounting (served + shed = offered). Exit \
         nonzero on any finding."
  in
  let jobs =
    Cli.jobs
      ~doc:
        "Run up to $(docv) sweep points concurrently on separate domains \
         (default: the machine's recommended domain count, capped at 16). \
         Each point is an independent seeded simulation, and results are \
         reassembled in sweep order, so all output is identical for any \
         $(docv)."
  in
  Cmd.v
    (Cmd.info "ccr_serve" ~version:"1.0"
       ~doc:
         "Sweep the open-loop serving workload over offered load, \
          revocation strategy and SLO governor."
       ~man:
         [
           `S Manpage.s_description;
           `P
             (Printf.sprintf
                "Workloads in this repository: %s. Revocation strategies: \
                 %s. Cross-process revocation scheduling policies \
                 (ccr_sim tenant --sched): round-robin, pressure, slo."
                all_workload_names strategy_names);
           `P
             "Each sweep point runs one deterministic simulated machine: an \
              open-loop Poisson load generator (core 0, never parked by \
              stop-the-world), N server threads, and the chosen revocation \
              strategy with the revoker sharing core 3 with a server. \
              Latency is recorded from intended arrival time, so revocation \
              pauses surface as queueing delay instead of being \
              coordinated-omitted. Same seed, same arguments: byte-identical \
              JSON.";
           `P
             "With $(b,--jobs) N the sweep points fan out across N domains. \
              Points are independent machines and results are reassembled \
              in sweep order, so the output is identical for any N; \
              $(b,dune build @determinism) compares the output of a sweep \
              at --jobs 1 and --jobs 4 byte for byte.";
         ])
    Term.(
      const serve $ modes $ qps $ governor $ requests $ servers $ queue_depth
      $ deadline $ target $ pattern $ Cli.seed 11 $ json $ check $ jobs)

let () = exit (Cmd.eval' main)
