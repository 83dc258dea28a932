(* ccr_sim: run one workload under one temporal-safety strategy and
   report the measurements — the repository's command-line front end.

     dune exec bin/ccr_sim.exe -- spec --workload xalancbmk --mode reloaded
     dune exec bin/ccr_sim.exe -- pgbench --mode cornucopia --transactions 4000
     dune exec bin/ccr_sim.exe -- grpc --mode reloaded --phases *)

open Cmdliner

module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Result = Workload.Result

let mode_arg =
  let doc =
    "Temporal-safety mode: baseline, paint+sync, cherivoke, cornucopia, \
     reloaded, or cheriot."
  in
  Arg.(value & opt Cli.mode (Runtime.Safe Revoker.Reloaded) & info [ "mode"; "m" ] ~doc)

let seed_arg = Cli.seed 1

let interp_conv =
  Arg.conv
    ( (function
      | "compiled" -> Ok Workload.Spec.Compiled
      | "reference" -> Ok Workload.Spec.Reference
      | s -> Error (`Msg (Printf.sprintf "unknown interpreter %S" s))),
      fun fmt i ->
        Format.pp_print_string fmt
          (match i with
          | Workload.Spec.Compiled -> "compiled"
          | Workload.Spec.Reference -> "reference") )

let interp_arg =
  Arg.(
    value
    & opt interp_conv Workload.Spec.Compiled
    & info [ "interp" ]
        ~doc:
          "SPEC interpreter: $(b,compiled) (default; draws ops a block at \
           a time into flat arrays and replays each block) or \
           $(b,reference) (draws and executes op by op). Both access \
           simulated memory through the same access path. Simulated \
           behaviour is bit-for-bit identical; only host time differs."
        ~docv:"KIND")

let phases_arg =
  Arg.(
    value & flag
    & info [ "phases" ] ~doc:"Print per-epoch revocation phase records.")

let trace_arg =
  Arg.(
    value
    & opt (some Cli.pos_int) None
    & info [ "trace" ]
        ~doc:"Attach an event tracer and dump the last $(docv) events."
        ~docv:"N")

let mk_tracer = function
  | None -> None
  | Some _ -> Some (Sim.Trace.create ~capacity:65536 ())

let sched_conv =
  Cli.named ~what:"scheduler" Os.Revsched.policy_of_name Os.Revsched.policy_name

let sched_doc =
  "Revocation scheduling policy: round-robin (fairness), pressure (most \
   quarantined bytes first), slo (least-loaded process first, pressure \
   tiebreak), or quota (largest quarantine debt first — the tenant \
   paying most for revocation lag sweeps first)."

let dump_trace trace tracer =
  match (trace, tracer) with
  | Some n, Some tr ->
      Format.printf "@.last %d trace events:@." (min n (Sim.Trace.length tr));
      Sim.Trace.dump Format.std_formatter ~last:n tr
  | _ -> ()

let report ~phases (r : Result.t) =
  Format.printf "workload:     %s@." r.Result.workload;
  Format.printf "mode:         %s@." r.Result.mode;
  Format.printf "wall:         %.3f ms (%d cycles)@." (Result.wall_ms r)
    r.Result.wall_cycles;
  Format.printf "cpu (all):    %.3f ms@." (Sim.Cost.cycles_to_ms r.Result.cpu_cycles);
  Format.printf "cpu (app):    %.3f ms@."
    (Sim.Cost.cycles_to_ms r.Result.app_cpu_cycles);
  Format.printf "bus:          %d transactions (%d on the app core)@."
    r.Result.bus_total r.Result.bus_app_core;
  Format.printf "peak RSS:     %d pages (%d KiB)@." r.Result.peak_rss_pages
    (r.Result.peak_rss_pages * 4);
  Format.printf "load faults:  %d@." r.Result.clg_faults;
  (match r.Result.mrs with
  | Some s ->
      Format.printf "revocations:  %d (%.1f MiB freed, %d blocked ops)@."
        s.Ccr.Mrs.revocations
        (float_of_int s.Ccr.Mrs.sum_freed_bytes /. 1048576.0)
        s.Ccr.Mrs.blocked_allocs;
      if s.Ccr.Mrs.abandoned_bytes > 0 then
        Format.printf "abandoned:    %d quarantine bytes dropped unrevoked at finish@."
          s.Ccr.Mrs.abandoned_bytes;
      if s.Ccr.Mrs.throttled_allocs > 0 then
        Format.printf "throttled:    %d mallocs slowed by epoch-abort backpressure@."
          s.Ccr.Mrs.throttled_allocs
  | None -> ());
  if Array.length r.Result.latencies_us > 0 then begin
    let l = Array.to_list r.Result.latencies_us in
    let p q = Stats.Summary.percentile l q in
    Format.printf "throughput:   %.0f /s@." r.Result.throughput;
    Format.printf "latency us:   p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.1f@."
      (p 50.) (p 90.) (p 99.) (p 99.9)
      (List.fold_left max 0. l)
  end;
  if phases then
    List.iter
      (fun ph ->
        Format.printf
          "  epoch %3d: stw=%8.1fus conc=%8.2fms faults=%4d (%.2fms) pages=%5d revoked=%6d bytes=%d@."
          ph.Revoker.epoch_index
          (Sim.Cost.cycles_to_us ph.Revoker.stw_cycles)
          (Sim.Cost.cycles_to_ms ph.Revoker.concurrent_cycles)
          ph.Revoker.fault_count
          (Sim.Cost.cycles_to_ms ph.Revoker.fault_cycles)
          ph.Revoker.pages_visited ph.Revoker.caps_revoked ph.Revoker.bytes_processed)
      r.Result.phases

let spec_cmd =
  let workload =
    let all = String.concat ", " (List.map (fun (p : Workload.Profile.t) -> p.Workload.Profile.name) Workload.Profile.spec_all) in
    Arg.(
      required
      & opt (some string) None
      & info [ "workload"; "w" ] ~doc:(Printf.sprintf "SPEC workload: %s." all))
  in
  let scale =
    Arg.(
      value & opt Cli.pos_float 0.5
      & info [ "scale" ] ~doc:"Operation-count scale.")
  in
  let run workload scale mode seed interp phases trace =
    match Workload.Profile.find workload with
    | p ->
        let tracer = mk_tracer trace in
        report ~phases
          (Workload.Spec.run ~seed ~ops_scale:scale ?tracer ~interp ~mode p);
        dump_trace trace tracer;
        0
    | exception Not_found ->
        Format.eprintf "unknown workload %S@." workload;
        1
  in
  Cmd.v
    (Cmd.info "spec" ~doc:"Run a synthetic SPEC CPU2006 workload.")
    Term.(
      const run $ workload $ scale $ mode_arg $ seed_arg $ interp_arg
      $ phases_arg $ trace_arg)

let pgbench_cmd =
  let transactions =
    Arg.(
      value & opt Cli.pos_int 6000
      & info [ "transactions"; "t" ] ~doc:"Transaction count.")
  in
  let rate =
    Arg.(
      value
      & opt (some Cli.pos_float) None
      & info [ "rate" ] ~doc:"Fixed arrival schedule, transactions/second.")
  in
  let run transactions rate mode seed phases trace =
    let config =
      { Workload.Pgbench.transactions; rate; seed }
    in
    let tracer = mk_tracer trace in
    report ~phases (Workload.Pgbench.run ~config ?tracer ~mode ());
    dump_trace trace tracer;
    0
  in
  Cmd.v
    (Cmd.info "pgbench" ~doc:"Run the pgbench-style interactive workload.")
    Term.(const run $ transactions $ rate $ mode_arg $ seed_arg $ phases_arg $ trace_arg)

let grpc_cmd =
  let messages =
    Arg.(
      value & opt Cli.pos_int 24000 & info [ "messages" ] ~doc:"Message count.")
  in
  let run messages mode seed phases trace =
    let config = { Workload.Grpc.default_config with messages; seed } in
    let tracer = mk_tracer trace in
    report ~phases (Workload.Grpc.run ~config ?tracer ~mode ());
    dump_trace trace tracer;
    0
  in
  Cmd.v
    (Cmd.info "grpc" ~doc:"Run the gRPC-QPS-style multithreaded workload.")
    Term.(const run $ messages $ mode_arg $ seed_arg $ phases_arg $ trace_arg)

let tenant_cmd =
  let workload =
    Arg.(
      value
      & opt string "hmmer_retro"
      & info [ "workload"; "w" ] ~doc:"SPEC profile every tenant runs.")
  in
  let tenants =
    Arg.(
      value & opt Cli.pos_int 2
      & info [ "tenants"; "n" ] ~doc:"Concurrent processes.")
  in
  let scale =
    Arg.(
      value & opt Cli.pos_float 0.25
      & info [ "scale" ] ~doc:"Operation-count scale.")
  in
  let sched =
    Arg.(
      value & opt sched_conv Os.Revsched.Round_robin & info [ "sched" ] ~doc:sched_doc)
  in
  let run workload tenants scale sched mode seed =
    match Workload.Profile.find workload with
    | p ->
        let r =
          Workload.Tenant.run ~seed ~ops_scale:scale ~sched ~tenants ~mode p
        in
        Workload.Tenant.pp Format.std_formatter r;
        0
    | exception Not_found ->
        Format.eprintf "unknown workload %S@." workload;
        1
  in
  Cmd.v
    (Cmd.info "tenant"
       ~doc:
         "Run N concurrent tenant processes under the cross-process \
          revocation scheduler.")
    Term.(const run $ workload $ tenants $ scale $ sched $ mode_arg $ seed_arg)

(* --- tenantecon: quota'd tenants, over-commit, bulk-free storm ------- *)

module Tecon = Workload.Tenantecon
module Ledger = Tenancy.Ledger

type te_row = {
  te_governed : bool;
  te_overcommit : Ledger.overcommit;
  te_result : Tecon.result;
  te_clean : bool;
  te_report : string;
}

(* One sweep point on a worker domain: never prints, findings go into
   the row's buffer. *)
let tenantecon_point ~cfg ~mode ~check (governed, overcommit) =
  let cfg : Tecon.config = { cfg with Tecon.governed; overcommit } in
  let checks = ref None in
  let tracer =
    if check then Some (Sim.Trace.create ~capacity:(1 lsl 20) ()) else None
  in
  let on_os os = if check then checks := Some (Analysis.Check.attach_os os) in
  let r = Tecon.run ?tracer ~on_os ~config:cfg ~mode () in
  let te_clean, te_report =
    Analysis.Check.verdict !checks
      ~drift:
        ((if r.Tecon.identity_ok then []
          else
            [
              "ccr_sim tenantecon: accounting drift: offered <> served + \
               shed + lost";
            ])
        @
        if r.Tecon.conserved then []
        else [ "ccr_sim tenantecon: quota ledger conservation violated" ])
  in
  {
    te_governed = governed;
    te_overcommit = overcommit;
    te_result = r;
    te_clean;
    te_report;
  }

let te_record ~storm_at ~rate ~requests ~seed row =
  let r = row.te_result in
  let tenant (o : Tecon.tenant_outcome) =
    Cli.Json.(
      Obj
        [
          ("pid", Int o.Tecon.o_pid);
          ("quota", Int o.Tecon.o_quota);
          ("offered", Int o.Tecon.o_offered);
          ("served", Int o.Tecon.o_served);
          ("shed_quota", Int o.Tecon.o_shed_quota);
          ("shed_depth", Int o.Tecon.o_shed_depth);
          ("lost", Int o.Tecon.o_lost);
          ("denied_quota", Int o.Tecon.o_denied_quota);
          ("denied_phys", Int o.Tecon.o_denied_phys);
          ("reclaims", Int o.Tecon.o_reclaims);
          ("p99_us", Float (3, o.Tecon.o_p99_us));
          ("goodput", Float (1, o.Tecon.o_goodput));
          ("balance", Int o.Tecon.o_balance);
          ("grants", Int o.Tecon.o_grants);
          ("conserved", Bool o.Tecon.o_conserved);
          ("crashed", Bool o.Tecon.o_crashed);
        ])
  in
  Cli.Json.(
    Obj
      ((("workload", String "tenantecon")
       :: schema ~tenants:r.Tecon.tenants
            ~overcommit:(Ledger.overcommit_name row.te_overcommit)
            ())
      @ [
          ("mode", String r.Tecon.mode);
          ("sched", String r.Tecon.sched);
          ("governor", Bool row.te_governed);
          ("storm_at", Float (2, storm_at));
          ("rate", Float (1, rate));
          ("requests", Int requests);
          ("seed", Int seed);
          ("quota_total", Int r.Tecon.quota_total);
          ("phys_limit", Int r.Tecon.phys_limit);
          ("storm_tenant", Int r.Tecon.storm_tenant);
          ("storm_freed_allocs", Int r.Tecon.storm_freed_allocs);
          ("storm_freed_bytes", Int r.Tecon.storm_freed_bytes);
          ("quarantine_peak", Int r.Tecon.quarantine_peak);
          ("committed_peak", Int r.Tecon.committed_peak);
          ("p999_us", Float (3, r.Tecon.p999_us));
          ("p999_calm_us", Float (3, r.Tecon.p999_calm_us));
          ("p999_storm_us", Float (3, r.Tecon.p999_storm_us));
          ("identity_ok", Bool r.Tecon.identity_ok);
          ("conserved", Bool r.Tecon.conserved);
          ("per_tenant", List (List.map tenant r.Tecon.per_tenant));
        ]))

(* [all], or a comma-separated list of policy names *)
let overcommits =
  let policies =
    Cli.list
      (Cli.named ~what:"over-commit policy" Ledger.overcommit_of_name
         Ledger.overcommit_name)
  in
  Arg.conv
    ( (fun s ->
        if String.trim s = "all" then Ok Ledger.all_overcommits
        else Arg.conv_parser policies s),
      fun ppf l ->
        if l = Ledger.all_overcommits then Format.pp_print_string ppf "all"
        else Arg.conv_printer policies ppf l )

let tenantecon_cmd =
  let tenants =
    Arg.(
      value & opt Cli.pos_int 3
      & info [ "tenants"; "n" ]
          ~doc:
            "Tenant process count. Tenant $(i,i) gets quota \
             $(b,--quota) × (i+1); the largest tenant is the one the \
             storm crashes.")
  in
  let quota =
    Arg.(
      value
      & opt Cli.pos_int Tecon.default_config.Tecon.quota_base
      & info [ "quota" ]
          ~doc:
            "Base quota in bytes; tenant $(i,i)'s quota is $(docv) × (i+1), \
             charged at size-class granularity and refunded only when \
             memory leaves quarantine." ~docv:"BYTES")
  in
  let overcommit =
    Arg.(
      value
      & opt overcommits Ledger.all_overcommits
      & info [ "overcommit" ]
          ~doc:
            "Comma-separated over-commit policies to sweep, or $(b,all): \
             $(b,deny) (physical exhaustion refuses the allocation), \
             $(b,steal) (force the largest quarantine debtor through \
             revocation and retry), $(b,revoke) (flush every debtor's \
             quarantine and retry).")
  in
  let storm_at =
    Arg.(
      value
      & opt Cli.pos_float Tecon.default_config.Tecon.storm_at
      & info [ "storm-at" ]
          ~doc:
            "Crash the largest tenant at this fraction of the horizon: \
             its queue drains as lost, free_all hands its whole live \
             heap to quarantine, its capability is revoked. 1.0 or more \
             disables the storm." ~docv:"FRAC")
  in
  let phys_frac =
    Arg.(
      value
      & opt Cli.pos_float Tecon.default_config.Tecon.phys_frac
      & info [ "phys-frac" ]
          ~doc:
            "Physical heap limit as a fraction of the quota sum; below \
             1.0 the quotas are over-committed." ~docv:"FRAC")
  in
  let requests =
    Arg.(
      value
      & opt Cli.pos_int Tecon.default_config.Tecon.requests
      & info [ "requests" ] ~doc:"Requests per tenant.")
  in
  let rate =
    Arg.(
      value
      & opt Cli.pos_float Tecon.default_config.Tecon.rate
      & info [ "rate" ] ~doc:"Per-tenant offered load, requests/second.")
  in
  let sched =
    Arg.(
      value & opt sched_conv Os.Revsched.Quota & info [ "sched" ] ~doc:sched_doc)
  in
  let governor =
    Arg.(
      value
      & opt Cli.governor_axis [ false; true ]
      & info [ "governor"; "g" ]
          ~doc:"Governor axis: $(b,on), $(b,off) or $(b,both).")
  in
  let json = Cli.json ~doc:"Write per-run JSON records to $(docv)." in
  let check =
    Cli.check
      ~doc:
        "Attach the protocol sanitizer (including the quota-conservation \
         rule) and race detector to every sweep point, and verify the \
         serving and ledger identities exactly. Exit nonzero on any \
         finding."
  in
  let jobs =
    Cli.jobs
      ~doc:
        "Run up to $(docv) sweep points concurrently on separate domains; \
         results are reassembled in sweep order, so all output is \
         identical for any $(docv)."
  in
  let run tenants quota overcommits storm_at phys_frac requests rate sched
      governed_axis mode seed json check jobs =
    let cfg =
      {
        Tecon.default_config with
        Tecon.tenants;
        quota_base = quota;
        phys_frac;
        storm_at;
        requests;
        rate;
        sched;
        seed;
      }
    in
    let points =
      List.concat_map
        (fun governed -> List.map (fun oc -> (governed, oc)) overcommits)
        governed_axis
    in
    let rows =
      Parallel.Pool.map ~jobs (tenantecon_point ~cfg ~mode ~check) points
    in
    List.iter
      (fun row ->
        Format.printf "--- governor=%s overcommit=%s ---@."
          (if row.te_governed then "on" else "off")
          (Ledger.overcommit_name row.te_overcommit);
        Tecon.pp Format.std_formatter row.te_result)
      rows;
    Cli.write_records json
      (List.map (te_record ~storm_at ~rate ~requests ~seed) rows);
    Cli.check_epilogue ~check ~what:"runs"
      (List.map (fun row -> (row.te_clean, row.te_report)) rows)
  in
  Cmd.v
    (Cmd.info "tenantecon"
       ~doc:
         "Sweep tenant economics: quota'd allocator capabilities, \
          over-commit policies, and a bulk-free reclamation storm."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "N tenant processes with heterogeneous quotas serve open-loop \
              traffic through per-tenant admission queues that shed \
              over-quota tenants' requests before they queue (Req_shed \
              arg2=3). Allocation goes through sealed per-tenant allocator \
              capabilities charged at size-class granularity; the charge is \
              refunded only when memory leaves quarantine, so revocation \
              lag is an economic cost. The quota sum exceeds the physical \
              limit ($(b,--phys-frac)); exhaustion resolves through the \
              $(b,--overcommit) policy.";
           `P
             "At $(b,--storm-at) of the horizon the largest tenant crashes: \
              free_all hands its entire live heap to quarantine in one \
              shot and the zombie drains through its own revoker under \
              $(b,--sched). The per-slice p99.9 columns (calm vs storm) \
              show the excursion the surviving tenants ride out.";
           `P
             "Per tenant, charged − credited = live + quarantined exactly, \
              at every trace point: $(b,--check) attaches the sanitizer's \
              quota-conservation rule, the race detector, and exact \
              serving/ledger identity checks. Same seed, same arguments: \
              byte-identical output at any $(b,--jobs).";
         ])
    Term.(
      const run $ tenants $ quota $ overcommit $ storm_at $ phys_frac
      $ requests $ rate $ sched $ governor $ mode_arg $ seed_arg $ json
      $ check $ jobs)

let main =
  let spec_names =
    String.concat ", "
      (List.map
         (fun (p : Workload.Profile.t) -> p.Workload.Profile.name)
         Workload.Profile.spec_all)
  in
  Cmd.group
    (Cmd.info "ccr_sim" ~version:"1.0"
       ~doc:"Cornucopia Reloaded: CHERI heap temporal safety on a simulated machine."
       ~man:
         [
           `S Manpage.s_description;
           `P
             (Printf.sprintf
                "Workloads: spec (profiles: %s), pgbench, grpc, tenant, \
                 tenantecon — plus the open-loop serving sweep in ccr_serve."
                spec_names);
           `P
             "Temporal-safety modes (--mode): baseline, paint+sync, \
              cherivoke, cornucopia, reloaded, cheriot.";
           `P
             "Cross-process revocation scheduling policies (tenant and \
              tenantecon --sched): round-robin, pressure, slo, quota.";
         ])
    [ spec_cmd; pgbench_cmd; grpc_cmd; tenant_cmd; tenantecon_cmd ]

let () = exit (Cmd.eval' main)
