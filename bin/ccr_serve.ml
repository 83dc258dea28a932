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
module Rig = Workload.Rig

let modes_conv =
  let parse s =
    let parts = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: tl -> (
          match Runtime.mode_of_name (String.trim p) with
          | Some m -> go (m :: acc) tl
          | None -> Error (`Msg (Printf.sprintf "unknown mode %S" (String.trim p))))
    in
    go [] parts
  in
  let print fmt ms =
    Format.pp_print_string fmt
      (String.concat "," (List.map Runtime.mode_name ms))
  in
  Arg.conv (parse, print)

let floats_conv =
  let parse s =
    try
      Ok (List.map (fun p -> float_of_string (String.trim p))
            (String.split_on_char ',' (String.trim s)))
    with _ -> Error (`Msg (Printf.sprintf "expected comma-separated numbers, got %S" s))
  in
  let print fmt l =
    Format.pp_print_string fmt (String.concat "," (List.map string_of_float l))
  in
  Arg.conv (parse, print)

type governed_axis = Gov_on | Gov_off | Gov_both

let governor_conv =
  Arg.conv
    ( (function
      | "on" -> Ok Gov_on
      | "off" -> Ok Gov_off
      | "both" -> Ok Gov_both
      | s -> Error (`Msg (Printf.sprintf "expected on, off or both, got %S" s))),
      fun fmt g ->
        Format.pp_print_string fmt
          (match g with Gov_on -> "on" | Gov_off -> "off" | Gov_both -> "both") )

type run_row = {
  r_mode : string;
  r_governed : bool;
  r_qps : float;
  r_outcome : Serve.outcome;
  r_clean : bool; (* sanitizer + race detector + accounting, when --check *)
  r_report : string; (* buffered checker findings; printed by the caller *)
  r_duration_ms : float; (* host wall-clock of this sweep point *)
}

let percentile (o : Serve.outcome) p =
  match Slo.percentile o.Serve.slo p with Some v -> v | None -> 0.0

(* One run of the serving workload at one sweep point. Runs on a worker
   domain under --jobs, so it never prints: checker findings go into the
   row's [r_report] buffer and the caller emits them in submission
   order. *)
let run_point ~cfg ~check ~pattern ~mode ~governed ~qps =
  let t0 = Unix.gettimeofday () in
  (* the qps axis sets the pattern's mean rate *)
  let cfg = { cfg with Serve.pattern = Loadgen.pattern_at pattern ~qps } in
  let checks = ref None in
  let on_runtime rt = if check then checks := Some (Rig.attach_check rt) in
  let o = Serve.run ~config:cfg ~on_runtime ~governed ~mode () in
  let shed = o.Serve.shed_depth + o.Serve.shed_deadline in
  let clean, report =
    Rig.verdict !checks
      ~drift:
        (if
           o.Serve.served + shed = o.Serve.offered
           && o.Serve.offered = cfg.Serve.requests
         then None
         else
           Some
             (Printf.sprintf
                "ccr_serve: SLO accounting drift: served %d + shed %d <> offered %d"
                o.Serve.served shed o.Serve.offered))
  in
  {
    r_mode = Runtime.mode_name mode;
    r_governed = governed;
    r_qps = qps;
    r_outcome = o;
    r_clean = clean;
    r_report = report;
    r_duration_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
  }

let json_of_row ~pattern ~requests ~servers ~seed ~target ~jobs r =
  let o = r.r_outcome in
  let g = o.Serve.governor in
  let gi f = match g with Some s -> f s | None -> 0 in
  Printf.sprintf
    "{\"workload\": \"serve\", \"topology\": \"single\", \"host_count\": 1, \
     \"balancer\": \"none\", \"tenants\": 1, \"overcommit\": \"none\", \
     \"mode\": \"%s\", \"governor\": %b, \
     \"pattern\": \"%s\", \"qps\": %.1f, \"requests\": %d, \"servers\": %d, \
     \"seed\": %d, \"target_p99_us\": %.1f, \"p50_us\": %.3f, \"p99_us\": \
     %.3f, \"p999_us\": %.3f, \"offered\": %d, \"served\": %d, \
     \"shed_depth\": %d, \"shed_deadline\": %d, \"shed_rate\": %.5f, \
     \"violations\": %d, \"epochs_deferred\": %d, \"epochs_forced\": %d, \
     \"eager_flushes\": %d, \"defer_cycles\": %d, \"quanta_granted\": %d, \
     \"slo_events\": %d, \"epochs\": %d, \"clg_faults\": %d, \
     \"duration_ms\": %.3f, \"jobs\": %d}"
    r.r_mode r.r_governed pattern r.r_qps requests servers seed target
    (percentile o 50.0) (percentile o 99.0) (percentile o 99.9)
    o.Serve.offered o.Serve.served o.Serve.shed_depth o.Serve.shed_deadline
    (if o.Serve.offered = 0 then 0.0
     else
       float_of_int (o.Serve.shed_depth + o.Serve.shed_deadline)
       /. float_of_int o.Serve.offered)
    (Slo.violations o.Serve.slo)
    (gi (fun s -> s.Governor.epochs_deferred))
    (gi (fun s -> s.Governor.epochs_forced))
    (gi (fun s -> s.Governor.eager_flushes))
    (gi (fun s -> s.Governor.defer_cycles))
    (gi (fun s -> s.Governor.quanta_granted))
    (gi (fun s -> s.Governor.slo_events))
    (List.length o.Serve.result.Workload.Result.phases)
    o.Serve.result.Workload.Result.clg_faults r.r_duration_ms jobs

let all_workload_names = "serve (this tool); spec, pgbench, grpc, tenant (ccr_sim)"

let strategy_names =
  String.concat ", "
    (List.map Runtime.mode_name Runtime.all_modes)
  ^ ", safe/cheriot"

let serve modes qpss governor requests servers queue_depth deadline_us
    target_p99 pattern seed json check jobs =
  let valid =
    Result.bind (Parallel.Pool.validate_jobs jobs) (fun jobs ->
        if requests < 1 then
          Error (Printf.sprintf "--requests must be at least 1 (got %d)" requests)
        else if List.exists (fun q -> q <= 0.0) qpss then
          Error "every --qps must be positive"
        else
          Result.map
            (fun () -> jobs)
            (Rig.validate ~servers ~queue_depth ~deadline_us
               ~target_p99_us:target_p99 ()))
  in
  match valid with
  | Error msg ->
      Format.eprintf "ccr_serve: %s@." msg;
      1
  | Ok jobs ->
  begin
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
    let pattern_name = pattern in
    let governed_axis =
      match governor with
      | Gov_on -> [ true ]
      | Gov_off -> [ false ]
      | Gov_both -> [ false; true ]
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
    List.iter
      (fun r -> if r.r_report <> "" then Format.eprintf "%s" r.r_report)
      rows;
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
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc "[\n";
        List.iteri
          (fun i r ->
            if i > 0 then output_string oc ",\n";
            output_string oc "  ";
            output_string oc
              (json_of_row ~pattern:pattern_name ~requests ~servers ~seed
                 ~target:target_p99 ~jobs r))
          rows;
        output_string oc "\n]\n";
        close_out oc;
        Format.printf "wrote %d records to %s@." (List.length rows) path);
    if check then
      if List.for_all (fun r -> r.r_clean) rows then begin
        Format.printf "check: ok (%d runs, zero findings, accounting exact)@."
          (List.length rows);
        0
      end
      else begin
        Format.eprintf "check: FAILED@.";
        1
      end
    else 0
  end

let main =
  let modes =
    Arg.(
      value
      & opt modes_conv [ Runtime.Safe Revoker.Cornucopia; Runtime.Safe Revoker.Reloaded ]
      & info [ "modes"; "m" ]
          ~doc:
            (Printf.sprintf
               "Comma-separated temporal-safety modes to sweep. Known modes: \
                %s." strategy_names))
  in
  let qps =
    Arg.(
      value
      & opt floats_conv [ 60_000.0; 90_000.0; 110_000.0 ]
      & info [ "qps" ]
          ~doc:
            "Comma-separated offered loads (requests/second). The default \
             sweep spans the two-server knee: ~60k is comfortable, ~110k \
             is near saturation, where Cornucopia's stop-the-world \
             re-sweep detonates the p99.9.")
  in
  let governor =
    Arg.(
      value & opt governor_conv Gov_both
      & info [ "governor"; "g" ]
          ~doc:
            "Governor axis: $(b,on), $(b,off) or $(b,both). Governor \
             policies: off = policy-triggered epochs, unpaced sweeps; on = \
             SLO governor (epoch deferral into load troughs, forced release \
             on quarantine pressure, quantum-paced concurrent sweeps, eager \
             trough flushes).")
  in
  let requests =
    Arg.(value & opt int 6_000 & info [ "requests"; "n" ] ~doc:"Requests per run.")
  in
  let servers =
    Arg.(value & opt int 2 & info [ "servers" ] ~doc:"Server worker threads.")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~doc:"Admission-control queue bound.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-us" ]
          ~doc:"Shed requests whose queueing delay exceeds $(docv) µs.")
  in
  let target =
    Arg.(
      value & opt float 1_000.0
      & info [ "target-p99-us" ] ~doc:"SLO target fed to the governor.")
  in
  let pattern =
    Arg.(
      value
      & opt
          (enum
             [
               ("poisson", "poisson");
               ("bursty", "bursty");
               ("ramp", "ramp");
               ("diurnal", "diurnal");
             ])
          "poisson"
      & info [ "pattern" ]
          ~doc:
            "Arrival pattern at each sweep point: $(b,poisson), \
             $(b,bursty), $(b,ramp) or $(b,diurnal). The qps axis sets \
             the pattern's mean rate, so sweep points stay comparable \
             across patterns.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Deterministic simulation seed.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Write per-run JSON records to $(docv)." ~docv:"PATH")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Attach the protocol sanitizer and race detector to every run, \
             and verify exact SLO accounting (served + shed = offered). \
             Exit nonzero on any finding.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Parallel.Pool.default_jobs ())
      & info [ "jobs"; "j" ]
          ~doc:
            "Run up to $(docv) sweep points concurrently on separate \
             domains (default: the machine's recommended domain count, \
             capped at 16). Each point is an independent seeded \
             simulation, and results are reassembled in sweep order, so \
             all output except the host wall-clock $(b,duration_ms) \
             field is identical for any $(docv)." ~docv:"N")
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
              in sweep order, so every simulated quantity is identical for \
              any N; only the $(b,duration_ms) field (host wall-clock per \
              point) and $(b,jobs) field vary. CI enforces this by diffing \
              normalised --jobs 1 and --jobs 4 output.";
         ])
    Term.(
      const serve $ modes $ qps $ governor $ requests $ servers $ queue_depth
      $ deadline $ target $ pattern $ seed $ json $ check $ jobs)

let () = exit (Cmd.eval' main)
