(* ccr_fleet: sweep the multi-host serving simulator over topology ×
   balancer × failure schedule × retry policy and report fleet-wide
   goodput, end-to-end tail latency, failure accounting, and per-host
   revocation-pause attribution. Each sweep point is one deterministic
   fleet (N independent simulated machines behind a load balancer plus a
   deterministic client-resilience stack); hosts within a point fan out
   across --jobs domains and the simulated output is byte-identical for
   any --jobs.

     dune exec bin/ccr_fleet.exe -- --hosts 3 --balancers round-robin,hash
     dune exec bin/ccr_fleet.exe -- --failures crash-wave --retry naive,budgeted
     dune exec bin/ccr_fleet.exe -- --retry budgeted --hedge-pct 95 \
       --breaker on --brownout on --check --json fleet.json *)

open Cmdliner
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Loadgen = Service.Loadgen
module Squeue = Service.Squeue
module Histogram = Stats.Histogram
module Balancer = Fleet.Balancer
module Failplan = Fleet.Failplan
module Health = Fleet.Health
module Retry = Fleet.Retry
module Rig = Workload.Rig

let balancer =
  Cli.named ~what:"balancer" Balancer.strategy_of_name Balancer.strategy_name

let failures =
  Cli.named ~what:"failure schedule" Failplan.kind_of_name Failplan.kind_name

let retry_names = "none, naive, budgeted"

(* a policy by name, with its default knobs *)
let retry =
  Cli.named ~what:"retry policy"
    (fun s -> Option.map (fun p -> (s, p)) (Retry.policy_of_name s))
    fst

(* Cross-field validation: a clear one-line ccr_fleet-prefixed message
   and exit 1, never an exception trace. *)
exception Cli_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Cli_error s)) fmt

(* the resilience knobs, bundled so the main term stays readable *)
type res_cli = {
  c_retries : (string * Retry.policy) list;
  c_rmax : int option;
  c_base_us : float option;
  c_cap_us : float option;
  c_ratio : float option;
  c_burst : int option;
  c_hedge_pct : float option;
  c_hedge_min_us : float;
  c_breaker : bool;
  c_bfail : int;
  c_bcool_us : float;
  c_brownout : bool;
  c_benter : int;
  c_bexit : int;
  c_rto_us : float;
  c_rounds : int;
}

let policy_of rc = function
  | Retry.No_retry -> Retry.No_retry
  | Retry.Naive d ->
      Retry.Naive
        {
          max_attempts = Option.value rc.c_rmax ~default:d.max_attempts;
          delay_us = Option.value rc.c_base_us ~default:d.delay_us;
        }
  | Retry.Budgeted b ->
      Retry.Budgeted
        {
          max_attempts = Option.value rc.c_rmax ~default:b.max_attempts;
          base_us = Option.value rc.c_base_us ~default:b.base_us;
          cap_us = Option.value rc.c_cap_us ~default:b.cap_us;
          ratio = Option.value rc.c_ratio ~default:b.ratio;
          burst = Option.value rc.c_burst ~default:b.burst;
        }

let resilience_of rc policy =
  let retry = policy_of rc policy in
  (try Retry.validate retry with Invalid_argument m -> err "%s" m);
  let hedge =
    Option.map
      (fun p -> { Retry.h_pct = p; h_min_us = rc.c_hedge_min_us })
      rc.c_hedge_pct
  in
  (try Option.iter Retry.validate_hedge hedge
   with Invalid_argument m -> err "%s" m);
  let breaker =
    if not rc.c_breaker then None
    else
      Some
        {
          Health.default_config with
          failure_threshold = rc.c_bfail;
          cooloff_us = rc.c_bcool_us;
        }
  in
  let brownout =
    if not rc.c_brownout then None
    else
      Some
        {
          Squeue.default_brownout with
          b_enter = rc.c_benter;
          b_exit = rc.c_bexit;
        }
  in
  {
    Fleet.retry;
    hedge;
    breaker;
    brownout;
    rto_us = rc.c_rto_us;
    max_rounds = rc.c_rounds;
  }

type row = { r_cfg : Fleet.config; r_retry : string; r_outcome : Fleet.outcome }

let pct hist p =
  if Histogram.count hist = 0 then 0.0 else Histogram.percentile hist p

let row_record ~pattern r =
  let cfg = r.r_cfg and o = r.r_outcome in
  let res = cfg.Fleet.resilience in
  let f3 x = Cli.Json.Float (3, x) in
  let host i (h : Rig.outcome) =
    Cli.Json.(
      Obj
        [
          ("host", Int i);
          ("arrivals", Int h.Rig.arrivals);
          ("served", Int h.Rig.served);
          ("shed", Int (h.Rig.shed_depth + h.Rig.shed_deadline + h.Rig.shed_brownout));
          ("lost", Int h.Rig.lost);
          ("violations", Int (Service.Slo.violations h.Rig.slo));
          ("epochs", Int h.Rig.epochs);
          ("stw_pause_us", f3 h.Rig.stw_pause_us);
          ("max_pause_us", f3 h.Rig.max_pause_us);
          ("epoch_resumes", Int h.Rig.epoch_resumes);
          ("sweep_crash_retries", Int h.Rig.sweep_crash_retries);
          ("chaos_injected", Int h.Rig.chaos_injected);
          ("brownout_shifts", Int h.Rig.brownout_shifts);
        ])
  in
  Cli.Json.(
    Obj
      ((("workload", String "fleet")
       :: schema ~topology:(Fleet.topology cfg) ~host_count:cfg.Fleet.hosts
            ~balancer:(Balancer.strategy_name cfg.Fleet.balancer)
            ())
      @ [
          ("failures", String (Failplan.kind_name cfg.Fleet.failures));
          ("retry", String r.r_retry);
          ("hedge", Bool (res.Fleet.hedge <> None));
          ("breaker", Bool (res.Fleet.breaker <> None));
          ("brownout", Bool (res.Fleet.brownout <> None));
          ("rto_us", Float (1, res.Fleet.rto_us));
          ("max_rounds", Int res.Fleet.max_rounds);
          ("mode", String (Runtime.mode_name cfg.Fleet.mode));
          ("governor", Bool cfg.Fleet.governed);
          ("pattern", String pattern);
          ( "qps",
            Float
              ( 1,
                match cfg.Fleet.pattern with
                | Loadgen.Poisson q -> q
                | Loadgen.Bursty { base; peak; duty; _ } ->
                    (duty *. peak) +. ((1.0 -. duty) *. base)
                | Loadgen.Ramp { from_rate; to_rate } -> 0.5 *. (from_rate +. to_rate)
                | Loadgen.Diurnal { low; high; _ } -> 0.5 *. (low +. high) ) );
          ("requests", Int cfg.Fleet.requests);
          ("users", Int cfg.Fleet.users);
          ("servers_per_host", Int cfg.Fleet.servers_per_host);
          ("seed", Int cfg.Fleet.seed);
          ("target_p99_us", Float (1, cfg.Fleet.target_p99_us));
          ("p50_us", f3 (pct o.Fleet.hist 50.0));
          ("p99_us", f3 (pct o.Fleet.hist 99.0));
          ("p999_us", f3 (pct o.Fleet.hist 99.9));
          ( "p999_curve",
            List
              (Array.to_list
                 (Array.map (fun h -> f3 (pct h 99.9)) o.Fleet.slice_hists)) );
          ("offered", Int o.Fleet.offered);
          ("served", Int o.Fleet.served);
          ("retried_ok", Int o.Fleet.retried_ok);
          ("hedged_ok", Int o.Fleet.hedged_ok);
          ("shed_depth", Int o.Fleet.shed_depth);
          ("shed_deadline", Int o.Fleet.shed_deadline);
          ("shed_brownout", Int o.Fleet.shed_brownout);
          ("lost", Int o.Fleet.lost);
          ("redistributed", Int o.Fleet.redistributed);
          ("lb_dropped", Int o.Fleet.lb_dropped);
          ("violations", Int o.Fleet.violations);
          ("goodput_rps", Float (1, o.Fleet.goodput_rps));
          ("attempts", Int o.Fleet.attempts);
          ("retries_sent", Int o.Fleet.retries_sent);
          ("hedges_sent", Int o.Fleet.hedges_sent);
          ("dup_served", Int o.Fleet.dup_served);
          ("budget_exhausted", Int o.Fleet.budget_exhausted);
          ("breaker_trips", Int o.Fleet.breaker_trips);
          ("brownout_shifts", Int o.Fleet.brownout_shifts);
          ("rounds", Int o.Fleet.rounds);
          ("epochs", Int o.Fleet.epochs);
          ("epoch_resumes", Int o.Fleet.epoch_resumes);
          ("sweep_crash_retries", Int o.Fleet.sweep_crash_retries);
          ("chaos_injected", Int o.Fleet.chaos_injected);
          ("max_pause_us", f3 o.Fleet.max_pause_us);
          ("hosts", List (List.mapi host o.Fleet.hosts));
        ]))

let fleet hostss balancers failuress modes qps requests users governed
    servers_per_host queue_depth deadline target_p99 pattern slices critical
    background rescli seed json check jobs =
  try
    if critical +. background > 1.0 then
      err "--critical and --background must sum to at most 1";
    let resiliences =
      List.map (fun (name, p) -> (name, resilience_of rescli p)) rescli.c_retries
    in
    List.iter
      (fun (_, r) ->
        match
          Rig.validate ~servers:servers_per_host ~queue_depth ~deadline_us:deadline
            ~target_p99_us:target_p99 ?brownout:r.Fleet.brownout ()
        with
        | Error msg -> err "%s" msg
        | Ok () -> ())
      resiliences;
    let mk hosts balancer failures mode resilience =
      {
        Fleet.default_config with
        hosts;
        balancer;
        failures;
        mode;
        governed;
        pattern = Loadgen.pattern_at pattern ~qps;
        requests;
        users;
        critical;
        background;
        servers_per_host;
        queue_depth;
        deadline_us = deadline;
        target_p99_us = target_p99;
        slices;
        resilience;
        seed;
      }
    in
    (* Sweep points run sequentially — the parallelism budget goes to
       the hosts inside each fleet, which Fleet.run fans out over
       --jobs domains. *)
    let rows =
      List.concat_map
        (fun hosts ->
          List.concat_map
            (fun balancer ->
              List.concat_map
                (fun failures ->
                  List.concat_map
                    (fun mode ->
                      List.map
                        (fun (rname, resilience) ->
                          let cfg = mk hosts balancer failures mode resilience in
                          {
                            r_cfg = cfg;
                            r_retry = rname;
                            r_outcome = Fleet.run ~check ~jobs cfg;
                          })
                        resiliences)
                    modes)
                failuress)
            balancers)
        hostss
    in
    Format.printf
      "%-8s %-12s %-10s %-12s %-8s %8s %9s %10s %5s %5s %5s %5s %5s %5s@."
      "topology" "balancer" "failures" "mode" "retry" "p50us" "p99.9us"
      "goodput/s" "r_ok" "h_ok" "lost" "drop" "trips" "rnds";
    List.iter
      (fun r ->
        let cfg = r.r_cfg and o = r.r_outcome in
        Format.printf
          "%-8s %-12s %-10s %-12s %-8s %8.1f %9.1f %10.0f %5d %5d %5d %5d \
           %5d %5d@."
          (Fleet.topology cfg)
          (Balancer.strategy_name cfg.Fleet.balancer)
          (Failplan.kind_name cfg.Fleet.failures)
          (Runtime.mode_name cfg.Fleet.mode)
          r.r_retry
          (pct o.Fleet.hist 50.0)
          (pct o.Fleet.hist 99.9)
          o.Fleet.goodput_rps o.Fleet.retried_ok o.Fleet.hedged_ok
          o.Fleet.lost o.Fleet.lb_dropped o.Fleet.breaker_trips
          o.Fleet.rounds)
      rows;
    Cli.write_records json (List.map (row_record ~pattern) rows);
    Cli.check_epilogue ~check ~what:"fleets"
      (List.map (fun r -> (r.r_outcome.Fleet.clean, r.r_outcome.Fleet.report)) rows)
  with Cli_error msg ->
    Format.eprintf "ccr_fleet: %s@." msg;
    1

let balancer_names =
  String.concat ", " (List.map Balancer.strategy_name Balancer.all_strategies)

let failure_names =
  String.concat ", " (List.map Failplan.kind_name Failplan.all_kinds)

let main =
  let hosts =
    Arg.(
      value
      & opt (Cli.list Cli.pos_int) [ 3 ]
      & info [ "hosts" ]
          ~doc:
            "Comma-separated fleet sizes to sweep. Every size is a flat \
             topology: $(docv) equivalent hosts behind one balancer.")
  in
  let balancers =
    Arg.(
      value
      & opt (Cli.list balancer) [ Balancer.Round_robin; Balancer.Consistent_hash ]
      & info [ "balancers"; "b" ]
          ~doc:
            (Printf.sprintf "Comma-separated balancing strategies: %s."
               balancer_names))
  in
  let failures =
    Arg.(
      value
      & opt (Cli.list failures) [ Failplan.Rolling ]
      & info [ "failures"; "f" ]
          ~doc:
            (Printf.sprintf "Comma-separated failure schedules: %s."
               failure_names))
  in
  let modes =
    Arg.(
      value
      & opt (Cli.list Cli.mode)
          [ Runtime.Safe Revoker.Cornucopia; Runtime.Safe Revoker.Reloaded ]
      & info [ "modes"; "m" ]
          ~doc:"Comma-separated temporal-safety modes (as in ccr_serve).")
  in
  let qps =
    Arg.(
      value & opt Cli.pos_float 120_000.0
      & info [ "qps" ]
          ~doc:
            "Fleet-wide mean offered load, requests/second, split across \
             hosts by the balancer.")
  in
  let requests =
    Arg.(
      value & opt Cli.pos_int 6_000
      & info [ "requests"; "n" ] ~doc:"Requests in the fleet-wide trace.")
  in
  let users =
    Arg.(
      value & opt Cli.pos_int 1_000_000
      & info [ "users" ]
          ~doc:
            "Simulated user population the trace samples from (the \
             consistent-hash balancer shards on user id).")
  in
  let governor =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "governor"; "g" ]
          ~doc:"Per-host SLO governor: $(b,on) or $(b,off).")
  in
  let servers =
    Arg.(
      value & opt Cli.pos_int 2
      & info [ "servers-per-host" ] ~doc:"Server worker threads per host.")
  in
  let queue_depth =
    Arg.(
      value & opt Cli.pos_int 64
      & info [ "queue-depth" ] ~doc:"Per-host admission-control queue bound.")
  in
  let deadline =
    Arg.(
      value
      & opt (some Cli.pos_float) None
      & info [ "deadline-us" ]
          ~doc:
            "Base queueing deadline in µs, stretched per class: critical \
             1x, normal 4x, background exempt. Off by default.")
  in
  let target =
    Arg.(
      value & opt Cli.pos_float 1_000.0
      & info [ "target-p99-us" ] ~doc:"SLO target fed to every host governor.")
  in
  let pattern =
    Arg.(
      value
      & opt Cli.pattern "diurnal"
      & info [ "pattern" ]
          ~doc:
            "Arrival pattern of the fleet-wide trace: $(b,poisson), \
             $(b,bursty), $(b,ramp) or $(b,diurnal) (default — a \
             compressed day/night cycle). The qps axis is the mean rate.")
  in
  let slices =
    Arg.(
      value & opt Cli.pos_int 12
      & info [ "slices" ]
          ~doc:
            "Time slices for the latency-over-time record (the p999_curve \
             field): each served request is also bucketed by its intended \
             arrival's slice of the trace horizon.")
  in
  let critical =
    Arg.(
      value & opt Cli.fraction 0.15
      & info [ "critical" ]
          ~doc:"Fraction of requests in the critical priority class.")
  in
  let background =
    Arg.(
      value & opt Cli.fraction 0.25
      & info [ "background" ]
          ~doc:
            "Fraction of requests in the background class (shed first under \
             brownout, exempt from deadlines).")
  in
  let retries =
    Arg.(
      value
      & opt (Cli.list retry) [ ("none", Retry.No_retry) ]
      & info [ "retry" ]
          ~doc:
            (Printf.sprintf
               "Comma-separated client retry policies to sweep: %s. \
                $(b,naive) resends on a fixed short delay with no budget \
                (the classic retry storm); $(b,budgeted) uses capped \
                exponential backoff with decorrelated jitter spent from a \
                per-class token bucket refilled only by successes."
               retry_names))
  in
  let retry_max =
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-max" ]
          ~doc:"Attempt cap per request including the original send (2-16).")
  in
  let retry_base =
    Arg.(
      value
      & opt (some float) None
      & info [ "retry-base-us" ]
          ~doc:
            "First backoff window in µs (budgeted), or the fixed resend \
             delay (naive).")
  in
  let retry_cap =
    Arg.(
      value
      & opt (some float) None
      & info [ "retry-cap-us" ] ~doc:"Backoff ceiling in µs (budgeted).")
  in
  let retry_ratio =
    Arg.(
      value
      & opt (some Cli.fraction) None
      & info [ "retry-ratio" ]
          ~doc:"Budget tokens refunded per success, in [0, 1] (budgeted).")
  in
  let retry_burst =
    Arg.(
      value
      & opt (some Cli.pos_int) None
      & info [ "retry-burst" ]
          ~doc:"Per-class retry budget capacity and initial fill (budgeted).")
  in
  let hedge_pct =
    Arg.(
      value
      & opt (some Cli.pos_float) None
      & info [ "hedge-pct" ]
          ~doc:
            "Enable tail hedging: duplicate a request toward a different \
             host once its original send has been silent longer than this \
             percentile of observed latencies (50-99.9). Off by default.")
  in
  let hedge_min =
    Arg.(
      value & opt float 200.0
      & info [ "hedge-min-us" ] ~doc:"Floor on the hedge delay, µs.")
  in
  let breaker =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) false
      & info [ "breaker" ]
          ~doc:
            "Per-host half-open circuit breakers on the client side: \
             $(b,on) or $(b,off).")
  in
  let breaker_failures =
    Arg.(
      value & opt Cli.pos_int 5
      & info [ "breaker-failures" ]
          ~doc:"Consecutive failures that trip a breaker open.")
  in
  let breaker_cooloff =
    Arg.(
      value & opt Cli.pos_float 5_000.0
      & info [ "breaker-cooloff-us" ]
          ~doc:
            "Open duration in µs before a breaker half-opens (doubles per \
             consecutive reopen).")
  in
  let brownout =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) false
      & info [ "brownout" ]
          ~doc:
            "Per-host brownout degradation: under queue pressure shed \
             background-class requests first and defer revocation harder. \
             $(b,on) or $(b,off).")
  in
  let brownout_enter =
    Arg.(
      value & opt int 48
      & info [ "brownout-enter" ]
          ~doc:"Queue depth that engages the brownout band.")
  in
  let brownout_exit =
    Arg.(
      value & opt int 12
      & info [ "brownout-exit" ]
          ~doc:"Queue depth that disengages the brownout band (< enter).")
  in
  let rto =
    Arg.(
      value & opt Cli.pos_float 2_000.0
      & info [ "rto-us" ]
          ~doc:
            "Client retransmission timeout in µs — how long a lost \
             (crash-destroyed) request stays silent before the client \
             acts on it.")
  in
  let max_rounds =
    Arg.(
      value & opt Cli.pos_int 6
      & info [ "max-rounds" ]
          ~doc:
            "Re-planning rounds before the client gives up on further \
             retries.")
  in
  let rescli =
    Term.(
      const (fun c_retries c_rmax c_base_us c_cap_us c_ratio c_burst
                 c_hedge_pct c_hedge_min_us c_breaker c_bfail c_bcool_us
                 c_brownout c_benter c_bexit c_rto_us c_rounds ->
          {
            c_retries;
            c_rmax;
            c_base_us;
            c_cap_us;
            c_ratio;
            c_burst;
            c_hedge_pct;
            c_hedge_min_us;
            c_breaker;
            c_bfail;
            c_bcool_us;
            c_brownout;
            c_benter;
            c_bexit;
            c_rto_us;
            c_rounds;
          })
      $ retries $ retry_max $ retry_base $ retry_cap $ retry_ratio
      $ retry_burst $ hedge_pct $ hedge_min $ breaker $ breaker_failures
      $ breaker_cooloff $ brownout $ brownout_enter $ brownout_exit $ rto
      $ max_rounds)
  in
  let json = Cli.json ~doc:"Write one JSON record per sweep point to $(docv)." in
  let check =
    Cli.check
      ~doc:
        "Attach the protocol sanitizer and race detector to every host and \
         verify exact fleet accounting (served + retried_ok + hedged_ok + \
         shed + lost + lb_dropped = offered, per-host and fleet-wide). Exit \
         nonzero on any finding."
  in
  let jobs =
    Cli.jobs
      ~doc:
        "Simulate up to $(docv) hosts concurrently on separate domains. \
         Hosts are independent seeded machines and outcomes are \
         reassembled in host order, so all output is identical for any \
         $(docv)."
  in
  Cmd.v
    (Cmd.info "ccr_fleet" ~version:"1.0"
       ~doc:
         "Sweep the multi-host serving simulator over topology, load \
          balancer, failure schedule and client retry policy."
       ~man:
         [
           `S Manpage.s_description;
           `P
             (Printf.sprintf
                "Balancers: %s. Topologies: flat/N (every host equivalent \
                 behind one balancer; N from --hosts). Failure schedules: \
                 %s — none injects nothing; rolling restarts each host \
                 once, one at a time, staggered so at most one host is \
                 down; crash-wave takes out roughly half the fleet (never \
                 all of it) in one seeded correlated burst."
                balancer_names failure_names);
           `P
             "Each sweep point simulates one fleet: a seeded open-loop \
              trace (sampled from --users simulated users) is dispatched \
              by the balancer against the planned failure windows, and \
              every host runs its shard as a self-contained simulated \
              machine — allocator, revoker, SLO governor and all. A host \
              that crashes loses what it had admitted: queued requests \
              drain as lost, an in-service response that straddles the \
              crash is destroyed, and the client only finds out via its \
              retransmission timeout. The host recovers by resuming its \
              checkpointed revocation epoch.";
           `P
             "The client stack is deterministic too: retries (--retry), \
              tail hedging (--hedge-pct), per-host circuit breakers \
              (--breaker) and brownout degradation (--brownout) are \
              re-planned in seeded rounds until the attempt set reaches a \
              fixed point, so every run is exactly reproducible and \
              byte-identical at any --jobs. The end-to-end histogram \
              charges every answer to the request's original intended \
              arrival — retries never reset the clock.";
           `P
             "With $(b,--jobs) N the hosts of each fleet fan out across N \
              domains. Hosts share nothing, so the output is identical for \
              any N; $(b,dune build @determinism) compares --jobs 1 and \
              --jobs 4 output of the same sweep byte for byte.";
         ])
    Term.(
      const fleet $ hosts $ balancers $ failures $ modes $ qps $ requests
      $ users $ governor $ servers $ queue_depth $ deadline $ target $ pattern
      $ slices $ critical $ background $ rescli $ Cli.seed 11 $ json $ check
      $ jobs)

let () = exit (Cmd.eval' main)
