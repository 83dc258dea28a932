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

let list_conv ~what of_string to_string =
  let parse s =
    let parts = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: tl -> (
          match of_string (String.trim p) with
          | Ok v -> go (v :: acc) tl
          | Error e -> Error e)
    in
    go [] parts
  in
  let print fmt l =
    Format.pp_print_string fmt (String.concat "," (List.map to_string l))
  in
  Arg.conv ~docv:what (parse, print)

let modes_conv =
  list_conv ~what:"MODES"
    (fun s ->
      match Runtime.mode_of_name s with
      | Some m -> Ok m
      | None -> Error (`Msg (Printf.sprintf "unknown mode %S" s)))
    Runtime.mode_name

let balancers_conv =
  list_conv ~what:"BALANCERS"
    (fun s ->
      match Balancer.strategy_of_name s with
      | Some b -> Ok b
      | None -> Error (`Msg (Printf.sprintf "unknown balancer %S" s)))
    Balancer.strategy_name

let failures_conv =
  list_conv ~what:"SCHEDULES"
    (fun s ->
      match Failplan.kind_of_name s with
      | Some k -> Ok k
      | None -> Error (`Msg (Printf.sprintf "unknown failure schedule %S" s)))
    Failplan.kind_name

let ints_conv =
  list_conv ~what:"HOSTS"
    (fun s ->
      match int_of_string_opt s with
      | Some i -> Ok i
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s)))
    string_of_int

let strings_conv =
  list_conv ~what:"NAMES" (fun s -> Ok s) Fun.id

(* CLI-level validation to the Pool.validate_jobs standard: a clear
   one-line ccr_fleet-prefixed message and exit 1, never an exception
   trace. *)
exception Cli_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Cli_error s)) fmt

(* the resilience knobs, bundled so the main term stays readable *)
type res_cli = {
  c_retries : string list;
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

let retry_names = "none, naive, budgeted"

let policy_of rc name =
  match Retry.policy_of_name name with
  | None -> err "unknown retry policy %S (expected one of: %s)" name retry_names
  | Some Retry.No_retry -> Retry.No_retry
  | Some (Retry.Naive d) ->
      Retry.Naive
        {
          max_attempts = Option.value rc.c_rmax ~default:d.max_attempts;
          delay_us = Option.value rc.c_base_us ~default:d.delay_us;
        }
  | Some (Retry.Budgeted b) ->
      Retry.Budgeted
        {
          max_attempts = Option.value rc.c_rmax ~default:b.max_attempts;
          base_us = Option.value rc.c_base_us ~default:b.base_us;
          cap_us = Option.value rc.c_cap_us ~default:b.cap_us;
          ratio = Option.value rc.c_ratio ~default:b.ratio;
          burst = Option.value rc.c_burst ~default:b.burst;
        }

let resilience_of rc name =
  let retry = policy_of rc name in
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
    else if rc.c_bfail < 1 then err "--breaker-failures must be at least 1"
    else if rc.c_bcool_us <= 0.0 then err "--breaker-cooloff-us must be positive"
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
  if rc.c_rto_us <= 0.0 then err "--rto-us must be positive";
  if rc.c_rounds < 1 then err "--max-rounds must be at least 1";
  {
    Fleet.retry;
    hedge;
    breaker;
    brownout;
    rto_us = rc.c_rto_us;
    max_rounds = rc.c_rounds;
  }

type row = {
  r_cfg : Fleet.config;
  r_retry : string;
  r_outcome : Fleet.outcome;
  r_duration_ms : float;
}

let pct hist p =
  if Histogram.count hist = 0 then 0.0 else Histogram.percentile hist p

let json_of_row ~pattern ~jobs r =
  let cfg = r.r_cfg and o = r.r_outcome in
  let res = cfg.Fleet.resilience in
  let curve =
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun h -> Printf.sprintf "%.3f" (pct h 99.9))
            o.Fleet.slice_hists))
  in
  let hosts =
    String.concat ", "
      (List.mapi
         (fun i (h : Rig.outcome) ->
           Printf.sprintf
             "{\"host\": %d, \"arrivals\": %d, \"served\": %d, \"shed\": %d, \
              \"lost\": %d, \"violations\": %d, \"epochs\": %d, \
              \"stw_pause_us\": %.3f, \"max_pause_us\": %.3f, \
              \"epoch_resumes\": %d, \"sweep_crash_retries\": %d, \
              \"chaos_injected\": %d, \"brownout_shifts\": %d}"
             i h.Rig.arrivals h.Rig.served
             (h.Rig.shed_depth + h.Rig.shed_deadline + h.Rig.shed_brownout)
             h.Rig.lost (Service.Slo.violations h.Rig.slo) h.Rig.epochs
             h.Rig.stw_pause_us h.Rig.max_pause_us h.Rig.epoch_resumes
             h.Rig.sweep_crash_retries h.Rig.chaos_injected
             h.Rig.brownout_shifts)
         o.Fleet.hosts)
  in
  Printf.sprintf
    "{\"workload\": \"fleet\", \"topology\": \"%s\", \"host_count\": %d, \
     \"balancer\": \"%s\", \"tenants\": 1, \"overcommit\": \"none\", \
     \"failures\": \"%s\", \"retry\": \"%s\", \
     \"hedge\": %b, \"breaker\": %b, \"brownout\": %b, \"rto_us\": %.1f, \
     \"max_rounds\": %d, \"mode\": \"%s\", \"governor\": %b, \"pattern\": \
     \"%s\", \"qps\": %.1f, \"requests\": %d, \"users\": %d, \
     \"servers_per_host\": %d, \"seed\": %d, \"target_p99_us\": %.1f, \
     \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f, \"p999_curve\": \
     [%s], \"offered\": %d, \"served\": %d, \"retried_ok\": %d, \
     \"hedged_ok\": %d, \"shed_depth\": %d, \"shed_deadline\": %d, \
     \"shed_brownout\": %d, \"lost\": %d, \"redistributed\": %d, \
     \"lb_dropped\": %d, \"violations\": %d, \"goodput_rps\": %.1f, \
     \"attempts\": %d, \"retries_sent\": %d, \"hedges_sent\": %d, \
     \"dup_served\": %d, \"budget_exhausted\": %d, \"breaker_trips\": %d, \
     \"brownout_shifts\": %d, \"rounds\": %d, \"epochs\": %d, \
     \"epoch_resumes\": %d, \"sweep_crash_retries\": %d, \"chaos_injected\": \
     %d, \"max_pause_us\": %.3f, \"hosts\": [%s], \"duration_ms\": %.3f, \
     \"jobs\": %d}"
    (Fleet.topology cfg) cfg.Fleet.hosts
    (Balancer.strategy_name cfg.Fleet.balancer)
    (Failplan.kind_name cfg.Fleet.failures)
    r.r_retry
    (res.Fleet.hedge <> None)
    (res.Fleet.breaker <> None)
    (res.Fleet.brownout <> None)
    res.Fleet.rto_us res.Fleet.max_rounds
    (Runtime.mode_name cfg.Fleet.mode)
    cfg.Fleet.governed pattern
    (match cfg.Fleet.pattern with
    | Loadgen.Poisson q -> q
    | Loadgen.Bursty { base; peak; duty; _ } ->
        (duty *. peak) +. ((1.0 -. duty) *. base)
    | Loadgen.Ramp { from_rate; to_rate } -> 0.5 *. (from_rate +. to_rate)
    | Loadgen.Diurnal { low; high; _ } -> 0.5 *. (low +. high))
    cfg.Fleet.requests cfg.Fleet.users cfg.Fleet.servers_per_host cfg.Fleet.seed
    cfg.Fleet.target_p99_us
    (pct o.Fleet.hist 50.0)
    (pct o.Fleet.hist 99.0)
    (pct o.Fleet.hist 99.9)
    curve o.Fleet.offered o.Fleet.served o.Fleet.retried_ok o.Fleet.hedged_ok
    o.Fleet.shed_depth o.Fleet.shed_deadline o.Fleet.shed_brownout o.Fleet.lost
    o.Fleet.redistributed o.Fleet.lb_dropped o.Fleet.violations
    o.Fleet.goodput_rps o.Fleet.attempts o.Fleet.retries_sent
    o.Fleet.hedges_sent o.Fleet.dup_served o.Fleet.budget_exhausted
    o.Fleet.breaker_trips o.Fleet.brownout_shifts o.Fleet.rounds o.Fleet.epochs
    o.Fleet.epoch_resumes o.Fleet.sweep_crash_retries o.Fleet.chaos_injected
    o.Fleet.max_pause_us hosts r.r_duration_ms jobs

let fleet hostss balancers failuress modes qps requests users governed
    servers_per_host queue_depth deadline target_p99 pattern slices critical
    background rescli seed json check jobs =
  try
    let jobs =
      match Parallel.Pool.validate_jobs jobs with
      | Error msg -> err "%s" msg
      | Ok jobs -> jobs
    in
    if requests < 1 then err "--requests must be at least 1 (got %d)" requests;
    List.iter
      (fun h -> if h < 1 then err "every --hosts count must be at least 1 (got %d)" h)
      hostss;
    if qps <= 0.0 then err "--qps must be positive";
    if users < 1 then err "--users must be at least 1";
    if slices < 1 then err "--slices must be at least 1";
    if critical < 0.0 || background < 0.0 || critical +. background > 1.0 then
      err "--critical and --background must be nonnegative and sum to at most 1";
    if rescli.c_retries = [] then err "--retry needs at least one policy";
    let resiliences =
      List.map (fun name -> (name, resilience_of rescli name)) rescli.c_retries
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
                          let t0 = Unix.gettimeofday () in
                          let o = Fleet.run ~check ~jobs cfg in
                          {
                            r_cfg = cfg;
                            r_retry = rname;
                            r_outcome = o;
                            r_duration_ms =
                              (Unix.gettimeofday () -. t0) *. 1000.0;
                          })
                        resiliences)
                    modes)
                failuress)
            balancers)
        hostss
    in
    List.iter
      (fun r ->
        if r.r_outcome.Fleet.report <> "" then
          Format.eprintf "%s" r.r_outcome.Fleet.report)
      rows;
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
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc "[\n";
        List.iteri
          (fun i r ->
            if i > 0 then output_string oc ",\n";
            output_string oc "  ";
            output_string oc (json_of_row ~pattern ~jobs r))
          rows;
        output_string oc "\n]\n";
        close_out oc;
        Format.printf "wrote %d records to %s@." (List.length rows) path);
    if check then
      if List.for_all (fun r -> r.r_outcome.Fleet.clean) rows then begin
        Format.printf
          "check: ok (%d fleets, zero findings, accounting exact)@."
          (List.length rows);
        0
      end
      else begin
        Format.eprintf "check: FAILED@.";
        1
      end
    else 0
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
      value & opt ints_conv [ 3 ]
      & info [ "hosts" ]
          ~doc:
            "Comma-separated fleet sizes to sweep. Every size is a flat \
             topology: $(docv) equivalent hosts behind one balancer.")
  in
  let balancers =
    Arg.(
      value
      & opt balancers_conv [ Balancer.Round_robin; Balancer.Consistent_hash ]
      & info [ "balancers"; "b" ]
          ~doc:
            (Printf.sprintf "Comma-separated balancing strategies: %s."
               balancer_names))
  in
  let failures =
    Arg.(
      value & opt failures_conv [ Failplan.Rolling ]
      & info [ "failures"; "f" ]
          ~doc:
            (Printf.sprintf "Comma-separated failure schedules: %s."
               failure_names))
  in
  let modes =
    Arg.(
      value
      & opt modes_conv
          [ Runtime.Safe Revoker.Cornucopia; Runtime.Safe Revoker.Reloaded ]
      & info [ "modes"; "m" ]
          ~doc:"Comma-separated temporal-safety modes (as in ccr_serve).")
  in
  let qps =
    Arg.(
      value & opt float 120_000.0
      & info [ "qps" ]
          ~doc:
            "Fleet-wide mean offered load, requests/second, split across \
             hosts by the balancer.")
  in
  let requests =
    Arg.(
      value & opt int 6_000
      & info [ "requests"; "n" ] ~doc:"Requests in the fleet-wide trace.")
  in
  let users =
    Arg.(
      value & opt int 1_000_000
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
      value & opt int 2
      & info [ "servers-per-host" ] ~doc:"Server worker threads per host.")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~doc:"Per-host admission-control queue bound.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-us" ]
          ~doc:
            "Base queueing deadline in µs, stretched per class: critical \
             1x, normal 4x, background exempt. Off by default.")
  in
  let target =
    Arg.(
      value & opt float 1_000.0
      & info [ "target-p99-us" ] ~doc:"SLO target fed to every host governor.")
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
          "diurnal"
      & info [ "pattern" ]
          ~doc:
            "Arrival pattern of the fleet-wide trace: $(b,poisson), \
             $(b,bursty), $(b,ramp) or $(b,diurnal) (default — a \
             compressed day/night cycle). The qps axis is the mean rate.")
  in
  let slices =
    Arg.(
      value & opt int 12
      & info [ "slices" ]
          ~doc:
            "Time slices for the latency-over-time record (the p999_curve \
             field): each served request is also bucketed by its intended \
             arrival's slice of the trace horizon.")
  in
  let critical =
    Arg.(
      value & opt float 0.15
      & info [ "critical" ]
          ~doc:"Fraction of requests in the critical priority class.")
  in
  let background =
    Arg.(
      value & opt float 0.25
      & info [ "background" ]
          ~doc:
            "Fraction of requests in the background class (shed first under \
             brownout, exempt from deadlines).")
  in
  let retries =
    Arg.(
      value
      & opt strings_conv [ "none" ]
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
      & opt (some float) None
      & info [ "retry-ratio" ]
          ~doc:"Budget tokens refunded per success, in [0, 1] (budgeted).")
  in
  let retry_burst =
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-burst" ]
          ~doc:"Per-class retry budget capacity and initial fill (budgeted).")
  in
  let hedge_pct =
    Arg.(
      value
      & opt (some float) None
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
      value & opt int 5
      & info [ "breaker-failures" ]
          ~doc:"Consecutive failures that trip a breaker open.")
  in
  let breaker_cooloff =
    Arg.(
      value & opt float 5_000.0
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
      value & opt float 2_000.0
      & info [ "rto-us" ]
          ~doc:
            "Client retransmission timeout in µs — how long a lost \
             (crash-destroyed) request stays silent before the client \
             acts on it.")
  in
  let max_rounds =
    Arg.(
      value & opt int 6
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
  let seed =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~doc:"Deterministic simulation seed.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:"Write one JSON record per sweep point to $(docv)."
          ~docv:"PATH")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Attach the protocol sanitizer and race detector to every host \
             and verify exact fleet accounting (served + retried_ok + \
             hedged_ok + shed + lost + lb_dropped = offered, per-host and \
             fleet-wide). Exit nonzero on any finding.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Parallel.Pool.default_jobs ())
      & info [ "jobs"; "j" ]
          ~doc:
            "Simulate up to $(docv) hosts concurrently on separate domains. \
             Hosts are independent seeded machines and outcomes are \
             reassembled in host order, so all output except the host \
             wall-clock $(b,duration_ms) field is identical for any \
             $(docv)." ~docv:"N")
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
              domains. Hosts share nothing, so every simulated quantity is \
              identical for any N; only the $(b,duration_ms) field \
              varies. CI enforces this by diffing normalised --jobs 1 and \
              --jobs 4 output of the same sweep.";
         ])
    Term.(
      const fleet $ hosts $ balancers $ failures $ modes $ qps $ requests
      $ users $ governor $ servers $ queue_depth $ deadline $ target $ pattern
      $ slices $ critical $ background $ rescli $ seed $ json $ check $ jobs)

let () = exit (Cmd.eval' main)
