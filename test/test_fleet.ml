(* Fleet-simulator tests: balancer determinism through failovers, exact
   fleet-wide accounting (now including lost-in-flight, retries, hedges
   and brownout sheds), failure-schedule validation, retry backoff and
   budget semantics, circuit-breaker state machinery, jobs-count
   invariance of the simulated outcome, and crash-recoverable revocation
   on a restarted host. *)

module Cost = Sim.Cost
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Policy = Ccr.Policy
module Loadgen = Service.Loadgen
module Histogram = Stats.Histogram
module Balancer = Fleet.Balancer
module Failplan = Fleet.Failplan
module Health = Fleet.Health
module Retry = Fleet.Retry
module Slo = Service.Slo
module Rig = Workload.Rig

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* every recorded fate of a host's arrivals, in arrival order *)
let fates (h : Rig.outcome) =
  List.filter_map (Rig.fate h.Rig.fates) (List.init h.Rig.arrivals Fun.id)

let small_config =
  {
    Fleet.default_config with
    hosts = 3;
    requests = 900;
    pattern = Loadgen.Diurnal { low = 60_000.0; high = 180_000.0; period_us = 3_000.0 };
    users = 50_000;
    seed = 11;
  }

let budgeted =
  match Retry.policy_of_name "budgeted" with
  | Some p -> p
  | None -> assert false

(* the fleet identity every run must satisfy exactly *)
let terminal_sum o =
  o.Fleet.served + o.Fleet.retried_ok + o.Fleet.hedged_ok + o.Fleet.shed_depth
  + o.Fleet.shed_deadline + o.Fleet.shed_brownout + o.Fleet.lost
  + o.Fleet.lb_dropped

(* ---- balancer determinism under crash/redistribute ---- *)

let route_all bal ~up n =
  List.init n (fun i ->
      Balancer.route bal ~now:(i * 1000) ~user:(i * 7919) ~up)

let test_balancer_deterministic () =
  List.iter
    (fun strategy ->
      let mk () = Balancer.create strategy ~hosts:4 ~est_service_cycles:500 in
      let up_all _ = true in
      let a = route_all (mk ()) ~up:up_all 200 in
      let b = route_all (mk ()) ~up:up_all 200 in
      check
        (Balancer.strategy_name strategy ^ " replays identically")
        true (a = b);
      check
        (Balancer.strategy_name strategy ^ " never redistributes when all up")
        true
        (List.for_all
           (function
             | Some d -> not d.Balancer.redistributed
             | None -> false)
           a);
      (* with host 2 down the same trace routes around it, marking every
         moved request, and still replays identically *)
      let up h = h <> 2 in
      let c = route_all (mk ()) ~up 200 in
      let d = route_all (mk ()) ~up 200 in
      check
        (Balancer.strategy_name strategy ^ " replays identically with a crash")
        true (c = d);
      check
        (Balancer.strategy_name strategy ^ " avoids the down host")
        true
        (List.for_all
           (function Some d -> d.Balancer.host <> 2 | None -> false)
           c);
      (* nothing routed to an up host may be marked redistributed unless
         its all-up first choice was the down host; cross-check by
         replaying the all-up trace *)
      List.iter2
        (fun allup crashed ->
          match (allup, crashed) with
          | Some a, Some c ->
              if c.Balancer.redistributed then
                checki
                  (Balancer.strategy_name strategy
                  ^ " redistributed means first choice was down")
                  2 a.Balancer.host
          | _ -> Alcotest.fail "route returned None with a host up")
        a c)
    Balancer.all_strategies

let test_balancer_hash_stability () =
  (* consistent hashing: a down owner moves only its own shard — every
     request whose all-up owner is still up keeps its host *)
  let mk () = Balancer.create Balancer.Consistent_hash ~hosts:5 ~est_service_cycles:500 in
  let up_all _ = true in
  let a = route_all (mk ()) ~up:up_all 500 in
  let up h = h <> 3 in
  let c = route_all (mk ()) ~up 500 in
  List.iter2
    (fun allup crashed ->
      match (allup, crashed) with
      | Some a, Some c ->
          if a.Balancer.host <> 3 then begin
            checki "unaffected shard stays put" a.Balancer.host c.Balancer.host;
            check "unaffected shard not marked redistributed" true
              (not c.Balancer.redistributed)
          end
          else check "down owner's shard moves" true (c.Balancer.host <> 3)
      | _ -> Alcotest.fail "route returned None with hosts up")
    a c;
  (* no host up: the balancer reports the drop rather than inventing one *)
  let none = Balancer.route (mk ()) ~now:0 ~user:1 ~up:(fun _ -> false) in
  check "no host up drops" true (none = None)

let test_balancer_penalty_steers () =
  (* least-loaded with a crushing penalty on host 0 routes everything
     else while the penalty-free replay spreads the load *)
  let bal = Balancer.create Balancer.Least_loaded ~hosts:3 ~est_service_cycles:1_000_000 in
  let penalty h = if h = 0 then 1_000 else 0 in
  let routed =
    List.init 30 (fun i ->
        Balancer.route ~penalty bal ~now:i ~user:i ~up:(fun _ -> true))
  in
  check "penalised host avoided" true
    (List.for_all
       (function Some d -> d.Balancer.host <> 0 | None -> false)
       routed)

let test_plan_deterministic_and_redistributing () =
  let cfg = { small_config with failures = Failplan.Rolling } in
  let a = Fleet.plan cfg and b = Fleet.plan cfg in
  check "same seed, same dispatch" true (a = b);
  check "rolling restarts redistribute traffic" true (a.Fleet.d_redistributed > 0);
  checki "rolling keeps every request placed" 0 a.Fleet.d_lb_dropped;
  let shard_sum =
    Array.fold_left (fun acc s -> acc + Array.length s) 0 a.Fleet.d_assign
  in
  checki "every offered request lands in exactly one shard"
    a.Fleet.d_offered shard_sum;
  let c = Fleet.plan { cfg with seed = 12 } in
  check "different seed, different dispatch" true (a <> c)

(* ---- failure-schedule validation ---- *)

let test_failplan_validate () =
  let w host down up = { Failplan.w_host = host; w_down = down; w_up = up } in
  let ok ws = Failplan.validate ~hosts:3 ~horizon:1000 ws = Ok () in
  let bad ws = Result.is_error (Failplan.validate ~hosts:3 ~horizon:1000 ws) in
  check "empty schedule valid" true (ok []);
  check "plain schedule valid" true (ok [ w 0 10 20; w 1 15 25 ]);
  check "cross-host overlap is legal (a crash wave)" true
    (ok [ w 0 100 300; w 1 150 350; w 2 200 400 ]);
  check "same host back-to-back is legal" true (ok [ w 0 10 20; w 0 20 30 ]);
  check "host id below range rejected" true (bad [ w (-1) 10 20 ]);
  check "host id above range rejected" true (bad [ w 3 10 20 ]);
  check "negative down rejected" true (bad [ w 0 (-5) 20 ]);
  check "inverted window rejected" true (bad [ w 0 20 20 ]);
  check "window past horizon rejected" true (bad [ w 0 10 1001 ]);
  check "same-host overlap rejected" true (bad [ w 0 10 30; w 0 20 40 ]);
  check "same-host containment rejected" true (bad [ w 0 10 100; w 0 40 60 ]);
  (* the planner's own output always validates *)
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let ws = Failplan.plan kind ~hosts:4 ~horizon:10_000 ~seed in
          check
            (Printf.sprintf "%s/%d output validates" (Failplan.kind_name kind)
               seed)
            true
            (Failplan.validate ~hosts:4 ~horizon:10_000 ws = Ok ()))
        [ 1; 11; 42 ])
    Failplan.all_kinds;
  (* a bad override is rejected loudly by the fleet planner *)
  let bad_cfg =
    { small_config with windows_override = Some [ w 7 10 20 ] }
  in
  check "fleet rejects invalid override" true
    (try
       ignore (Fleet.plan bad_cfg);
       false
     with Invalid_argument _ -> true)

(* ---- retry policy semantics ---- *)

let test_retry_policies () =
  check "none parses" true (Retry.policy_of_name "none" = Some Retry.No_retry);
  check "unknown rejected" true (Retry.policy_of_name "heroic" = None);
  checki "no_retry means one attempt" 1 (Retry.max_attempts Retry.No_retry);
  let invalid p =
    try
      Retry.validate p;
      false
    with Invalid_argument _ -> true
  in
  check "attempt cap below 2 rejected" true
    (invalid (Retry.Naive { max_attempts = 1; delay_us = 100.0 }));
  check "attempt cap above 16 rejected" true
    (invalid (Retry.Naive { max_attempts = 17; delay_us = 100.0 }));
  check "cap below base rejected" true
    (invalid
       (Retry.Budgeted
          {
            max_attempts = 4;
            base_us = 500.0;
            cap_us = 100.0;
            ratio = 0.1;
            burst = 8;
          }));
  check "ratio above 1 rejected" true
    (invalid
       (Retry.Budgeted
          {
            max_attempts = 4;
            base_us = 100.0;
            cap_us = 1000.0;
            ratio = 1.5;
            burst = 8;
          }));
  (* backoff is a pure hash: same inputs, same delay; naive is flat *)
  let b1 = Retry.backoff_us budgeted ~seed:7 ~req:123 ~attempt:1 in
  let b1' = Retry.backoff_us budgeted ~seed:7 ~req:123 ~attempt:1 in
  check "backoff pure in its inputs" true (b1 = b1');
  check "backoff varies by request" true
    (Retry.backoff_us budgeted ~seed:7 ~req:124 ~attempt:1 <> b1);
  let naive = Retry.Naive { max_attempts = 4; delay_us = 250.0 } in
  List.iter
    (fun (req, attempt) ->
      Alcotest.(check (float 1e-9))
        "naive delay is flat" 250.0
        (Retry.backoff_us naive ~seed:3 ~req ~attempt))
    [ (1, 1); (2, 1); (1, 3) ];
  (* budgeted windows double per attempt with jitter in [w, 2w), capped *)
  (match budgeted with
  | Retry.Budgeted { base_us; cap_us; _ } ->
      for attempt = 1 to 8 do
        let w = base_us *. (2.0 ** float_of_int (attempt - 1)) in
        let lo = Float.min cap_us w and hi = Float.min cap_us (2.0 *. w) in
        for req = 0 to 50 do
          let d = Retry.backoff_us budgeted ~seed:11 ~req ~attempt in
          check "backoff within its window" true (d >= lo && d <= hi)
        done
      done
  | _ -> assert false);
  check "no_retry has no backoff" true
    (try
       ignore (Retry.backoff_us Retry.No_retry ~seed:1 ~req:1 ~attempt:1);
       false
     with Invalid_argument _ -> true)

let test_retry_budget () =
  (* a tiny bucket: two tokens, full refund per success *)
  let p =
    Retry.Budgeted
      { max_attempts = 4; base_us = 100.0; cap_us = 1000.0; ratio = 1.0; burst = 2 }
  in
  let b = Retry.budget_create p ~classes:2 in
  check "budgeted gets a budget" true (b <> None);
  check "first take ok" true (Retry.budget_take b ~cls:0);
  check "second take ok" true (Retry.budget_take b ~cls:0);
  check "dry bucket denies" true (not (Retry.budget_take b ~cls:0));
  checki "denial counted" 1 (Retry.budget_denied b);
  check "classes are independent" true (Retry.budget_take b ~cls:1);
  Retry.budget_refill b ~cls:0;
  check "success refills" true (Retry.budget_take b ~cls:0);
  (* refills cap at burst: many successes cannot bank unlimited retries *)
  for _ = 1 to 50 do
    Retry.budget_refill b ~cls:0
  done;
  check "burst-capped take 1" true (Retry.budget_take b ~cls:0);
  check "burst-capped take 2" true (Retry.budget_take b ~cls:0);
  check "burst-capped third denied" true (not (Retry.budget_take b ~cls:0));
  (* naive deliberately has none: takes always succeed *)
  let nb =
    Retry.budget_create (Retry.Naive { max_attempts = 4; delay_us = 100.0 })
      ~classes:2
  in
  check "naive unbudgeted" true (nb = None);
  for _ = 1 to 100 do
    check "unbudgeted take never denies" true (Retry.budget_take nb ~cls:0)
  done;
  checki "unbudgeted denies nothing" 0 (Retry.budget_denied nb)

(* ---- circuit breaker state machine ---- *)

let test_breaker_lifecycle () =
  let cooloff_us = 1_000.0 in
  let cool = Cost.cycles_of_us cooloff_us in
  let cfg =
    {
      Health.failure_threshold = 3;
      cooloff_us;
      half_open_probes = 2;
      ewma_alpha = 0.5;
    }
  in
  let t = Health.create ~hosts:2 ~config:cfg ~est_service_us:50.0 () in
  check "starts closed" true (Health.state t ~host:0 = Health.Closed);
  check "closed admits" true (Health.available t ~host:0 ~now:0);
  Health.note_failure t ~host:0 ~now:10;
  Health.note_failure t ~host:0 ~now:20;
  check "below threshold stays closed" true
    (Health.state t ~host:0 = Health.Closed);
  Health.note_failure t ~host:0 ~now:30;
  check "threshold trips open" true (Health.state t ~host:0 = Health.Open);
  checki "trip counted" 1 (Health.trips t);
  check "other host untouched" true (Health.state t ~host:1 = Health.Closed);
  check "open rejects during cooloff" true
    (not (Health.available t ~host:0 ~now:(30 + (cool / 2))));
  check "cooloff expiry half-opens" true
    (Health.available t ~host:0 ~now:(30 + cool + 1));
  check "half-open state" true (Health.state t ~host:0 = Health.Half_open);
  (* one probe success is not enough; the second closes *)
  Health.note_success t ~host:0 ~latency_us:40.0;
  check "one probe keeps probation" true
    (Health.state t ~host:0 = Health.Half_open);
  Health.note_success t ~host:0 ~latency_us:40.0;
  check "probes close" true (Health.state t ~host:0 = Health.Closed);
  (* failed probation re-opens with an escalated cooloff *)
  let reopen_at = 10_000 + (4 * cool) in
  Health.note_failure t ~host:0 ~now:reopen_at;
  Health.note_failure t ~host:0 ~now:(reopen_at + 1);
  Health.note_failure t ~host:0 ~now:(reopen_at + 2);
  check "re-tripped" true (Health.state t ~host:0 = Health.Open);
  ignore (Health.available t ~host:0 ~now:(reopen_at + 2 + cool + 1));
  check "probation again" true (Health.state t ~host:0 = Health.Half_open);
  let fail_probe = reopen_at + 2 + cool + 2 in
  Health.note_failure t ~host:0 ~now:fail_probe;
  check "probation failure re-opens immediately" true
    (Health.state t ~host:0 = Health.Open);
  check "escalated cooloff outlasts the base one" true
    (not (Health.available t ~host:0 ~now:(fail_probe + cool + 1)));
  check "escalated cooloff still expires" true
    (Health.available t ~host:0 ~now:(fail_probe + (2 * cool) + 1));
  checki "three trips total" 3 (Health.trips t);
  checki "host 0 owns them all" 3 (Health.host_trips t ~host:0);
  (* penalty blends streak and EWMA; success resets the streak *)
  let t2 = Health.create ~hosts:1 ~config:cfg ~est_service_us:50.0 () in
  checki "fresh penalty zero" 0 (Health.penalty t2 ~host:0);
  Health.note_failure t2 ~host:0 ~now:5;
  checki "streak penalty" 2 (Health.penalty t2 ~host:0);
  Health.note_success t2 ~host:0 ~latency_us:500.0;
  (* excess over the 50 us estimate in 4-service-time units:
     (500 - 50) / 200 = 2 — a tilt, strictly below live queue counts *)
  checki "ewma penalty after reset" 2 (Health.penalty t2 ~host:0);
  Health.note_success t2 ~host:0 ~latency_us:1_000_000.0;
  checki "ewma penalty capped" 4 (Health.penalty t2 ~host:0);
  for _ = 1 to 40 do
    Health.note_success t2 ~host:0 ~latency_us:50.0
  done;
  checki "healthy latency decays to zero penalty" 0 (Health.penalty t2 ~host:0)

(* ---- accounting exactness through a failure wave ---- *)

let test_accounting_exact () =
  let cfg = { small_config with failures = Failplan.Rolling } in
  let d = Fleet.plan cfg in
  let o = Fleet.run ~jobs:2 cfg in
  checki "offered matches the trace" cfg.Fleet.requests o.Fleet.offered;
  checki "terminal fates partition the trace" o.Fleet.offered (terminal_sum o);
  checki "run's redistribution count matches the pure plan"
    d.Fleet.d_redistributed o.Fleet.redistributed;
  checki "run's drop count matches the pure plan" d.Fleet.d_lb_dropped
    o.Fleet.lb_dropped;
  checki "no retries configured, none sent" 0
    (o.Fleet.retries_sent + o.Fleet.hedges_sent);
  checki "one attempt per request" o.Fleet.offered o.Fleet.attempts;
  checki "no-retry run settles in one round" 1 o.Fleet.rounds;
  List.iteri
    (fun i (h : Rig.outcome) ->
      checki
        (Printf.sprintf "host %d shard size" i)
        (Array.length d.Fleet.d_assign.(i))
        h.Rig.arrivals;
      checki
        (Printf.sprintf "host %d served + shed + lost = arrivals" i)
        h.Rig.arrivals
        (h.Rig.served + h.Rig.shed_depth + h.Rig.shed_deadline
       + h.Rig.shed_brownout + h.Rig.lost);
      checki
        (Printf.sprintf "host %d reports every arrival's fate" i)
        h.Rig.arrivals
        (List.length (fates h)))
    o.Fleet.hosts;
  check "accounting is part of clean" true o.Fleet.clean;
  checki "fleet histogram holds every answered request"
    (o.Fleet.served + o.Fleet.retried_ok + o.Fleet.hedged_ok)
    (Histogram.count o.Fleet.hist)

(* ---- lost-in-flight semantics and retry recovery ---- *)

let test_lost_in_flight_and_retry () =
  (* one host, one mid-trace crash window: requests admitted before the
     crash but not answered are destroyed — the client hears nothing *)
  let base =
    { small_config with hosts = 1; requests = 600; failures = Failplan.No_failures }
  in
  let d = Fleet.plan base in
  let horizon = d.Fleet.d_horizon in
  let win =
    { Failplan.w_host = 0; w_down = horizon / 3; w_up = 2 * horizon / 3 }
  in
  let cfg = { base with windows_override = Some [ win ] } in
  let o = Fleet.run ~check:true ~jobs:2 cfg in
  check "checkers clean through the crash" true o.Fleet.clean;
  check "the crash destroys admitted work" true (o.Fleet.lost > 0);
  check "the blackout drops dispatches" true (o.Fleet.lb_dropped > 0);
  checki "identity exact with loss" o.Fleet.offered (terminal_sum o);
  checki "hist holds only answered requests" o.Fleet.served
    (Histogram.count o.Fleet.hist);
  (* the same trace under a budgeted retry policy: lost and dropped
     requests are resubmitted after backoff and recovered once the host
     returns; the attempt set grows, the request identity stays exact *)
  let r =
    Fleet.run ~check:true ~jobs:2
      {
        cfg with
        resilience = { Fleet.default_resilience with retry = budgeted };
      }
  in
  check "clean with retries" true r.Fleet.clean;
  check "retries recover failed requests" true (r.Fleet.retried_ok > 0);
  check "re-planning actually iterated" true (r.Fleet.rounds > 1);
  check "attempts grew beyond the trace" true (r.Fleet.attempts > r.Fleet.offered);
  checki "retries sent matches the attempt set"
    (r.Fleet.attempts - r.Fleet.offered)
    r.Fleet.retries_sent;
  checki "identity exact with retries" r.Fleet.offered (terminal_sum r);
  check "terminal losses do not grow under retry" true
    (r.Fleet.lost <= o.Fleet.lost);
  check "goodput does not drop when retries recover work" true
    (r.Fleet.served + r.Fleet.retried_ok + r.Fleet.hedged_ok >= o.Fleet.served)

(* ---- total outage: every dispatch refused, budgets exhausted ---- *)

let test_total_outage_accounting () =
  let base =
    { small_config with hosts = 2; requests = 400; failures = Failplan.No_failures }
  in
  let d = Fleet.plan base in
  let horizon = d.Fleet.d_horizon in
  let all_down =
    [
      { Failplan.w_host = 0; w_down = 0; w_up = horizon };
      { Failplan.w_host = 1; w_down = 0; w_up = horizon };
    ]
  in
  let cfg = { base with windows_override = Some all_down } in
  let o = Fleet.run ~check:true ~jobs:2 cfg in
  (* w_up is the first cycle a host serves again and the horizon is the
     last intended arrival, so only arrivals at exactly the horizon can
     route; everything earlier is a balancer drop. Nothing was ever
     admitted, so nothing can be lost or shed. *)
  check "clean through a total outage" true o.Fleet.clean;
  checki "nothing admitted, nothing lost" 0 o.Fleet.lost;
  checki "nothing admitted, nothing shed" 0
    (o.Fleet.shed_depth + o.Fleet.shed_deadline + o.Fleet.shed_brownout);
  check "effectively the whole trace is dropped" true
    (o.Fleet.lb_dropped >= o.Fleet.offered - 4);
  checki "drops + horizon-edge serves = offered" o.Fleet.offered
    (o.Fleet.lb_dropped + o.Fleet.served);
  (* with budgeted retries the drops spawn resubmissions that mostly
     fail again inside the outage: the per-class buckets run dry (that
     is the point of the budget), and the identity stays exact *)
  let r =
    Fleet.run ~check:true ~jobs:2
      {
        cfg with
        resilience = { Fleet.default_resilience with retry = budgeted };
      }
  in
  check "clean with retries against the outage" true r.Fleet.clean;
  check "retries were attempted" true (r.Fleet.retries_sent > 0);
  check "the budget ran dry" true (r.Fleet.budget_exhausted > 0);
  checki "identity exact under a retry-squeezed outage" r.Fleet.offered
    (terminal_sum r);
  check "most of the trace still terminally dropped" true
    (r.Fleet.lb_dropped > r.Fleet.offered / 2)

(* ---- jobs-count invariance ---- *)

let hist_fingerprint h =
  ( Histogram.count h,
    if Histogram.count h = 0 then []
    else List.map (Histogram.percentile h) [ 0.0; 50.0; 99.0; 99.9; 100.0 ] )

let host_fingerprint host (h : Rig.outcome) =
  ( ( host,
      h.Rig.arrivals,
      h.Rig.served,
      h.Rig.shed_depth,
      h.Rig.shed_deadline,
      h.Rig.shed_brownout,
      h.Rig.lost,
      Slo.violations h.Rig.slo ),
    ( h.Rig.result.Workload.Result.wall_cycles,
      h.Rig.epochs,
      h.Rig.stw_pause_us,
      h.Rig.max_pause_us,
      h.Rig.epoch_resumes,
      h.Rig.sweep_crash_retries,
      h.Rig.chaos_injected,
      h.Rig.brownout_shifts,
      h.Rig.clean,
      h.Rig.report ),
    fates h,
    hist_fingerprint (Slo.histogram h.Rig.slo) )

let fleet_fingerprint o =
  ( ( o.Fleet.offered,
      o.Fleet.served,
      o.Fleet.retried_ok,
      o.Fleet.hedged_ok,
      o.Fleet.shed_depth,
      o.Fleet.shed_deadline,
      o.Fleet.shed_brownout,
      o.Fleet.lost,
      o.Fleet.redistributed,
      o.Fleet.lb_dropped,
      o.Fleet.violations ),
    ( o.Fleet.makespan_cycles,
      o.Fleet.goodput_rps,
      o.Fleet.epochs,
      o.Fleet.epoch_resumes,
      o.Fleet.sweep_crash_retries,
      o.Fleet.chaos_injected,
      o.Fleet.max_pause_us,
      o.Fleet.clean,
      o.Fleet.report ),
    ( o.Fleet.attempts,
      o.Fleet.retries_sent,
      o.Fleet.hedges_sent,
      o.Fleet.dup_served,
      o.Fleet.budget_exhausted,
      o.Fleet.breaker_trips,
      o.Fleet.brownout_shifts,
      o.Fleet.rounds ),
    hist_fingerprint o.Fleet.hist,
    Array.to_list (Array.map hist_fingerprint o.Fleet.slice_hists),
    List.mapi host_fingerprint o.Fleet.hosts )

let test_jobs_invariance () =
  let cfg = { small_config with failures = Failplan.Rolling } in
  let a = Fleet.run ~jobs:1 cfg in
  let b = Fleet.run ~jobs:4 cfg in
  check "jobs 1 and jobs 4 simulate the same fleet" true
    (fleet_fingerprint a = fleet_fingerprint b)

let test_jobs_invariance_resilient () =
  (* the whole client stack at once: retries, hedging, breakers and
     brownout, through a crash wave — still byte-identical at any jobs *)
  let cfg =
    {
      small_config with
      balancer = Balancer.Least_loaded;
      failures = Failplan.Crash_wave;
      resilience =
        {
          Fleet.retry = budgeted;
          hedge = Some { Retry.h_pct = 95.0; h_min_us = 150.0 };
          breaker = Some Health.default_config;
          brownout = Some Service.Squeue.default_brownout;
          rto_us = 1_500.0;
          max_rounds = 6;
        };
    }
  in
  let a = Fleet.run ~check:true ~jobs:1 cfg in
  let b = Fleet.run ~check:true ~jobs:4 cfg in
  check "resilient fleet identical at jobs 1 and 4" true
    (fleet_fingerprint a = fleet_fingerprint b);
  check "resilient run is clean" true a.Fleet.clean;
  checki "identity exact with the full stack" a.Fleet.offered (terminal_sum a)

(* ---- crash-recoverable revocation on the restarted host ---- *)

let test_recovery_resumes_epoch () =
  (* Drive one rig directly: a dense arrival trace, a low quarantine
     floor so epochs fire often, and one crash window whose start
     injects a sweep crash mid-epoch. Recovery must resume the
     checkpointed epoch, the crash must destroy the admitted-but-unserved
     work (reported per request), and the checkers must stay clean. *)
  let requests = 800 in
  let gap = Cost.cycles_of_us 8.0 in
  let arrivals = Array.init requests (fun i -> (i + 1) * gap) in
  let horizon = (requests + 1) * gap in
  let window = (horizon / 3, horizon / 3 * 2) in
  let cfg =
    {
      Rig.name = "fleet-h0";
      mode = Runtime.Safe Revoker.Reloaded;
      governed = true;
      policy = Some (Policy.with_min Policy.default 16_384);
      heap_mb = 8;
      servers = 2;
      queue_depth = 64;
      deadline_us = None;
      brownout = None;
      target_p99_us = 1_000.0;
      session_slots = 512;
      compute_per_req = 20_000;
      seed = 11;
      clock = Rig.Absolute;
      windows = [ window ];
      check = true;
    }
  in
  let o = Rig.run cfg ~arrivals ~classes:(fun _ -> 0) in
  checki "every arrival accounted" requests
    (o.Rig.served + o.Rig.shed_depth + o.Rig.shed_deadline
   + o.Rig.shed_brownout + o.Rig.lost);
  checki "every arrival's fate reported" requests (List.length (fates o));
  check "the crash destroyed admitted work" true (o.Rig.lost > 0);
  check "the induced sweep crash fired" true (o.Rig.chaos_injected >= 1);
  check "the crash registered as a retry" true
    (o.Rig.sweep_crash_retries >= 1);
  check "the restarted host resumed its checkpointed epoch" true
    (o.Rig.epoch_resumes > 0);
  check "checkers stayed clean through crash recovery" true o.Rig.clean;
  Alcotest.(check string) "no buffered findings" "" o.Rig.report;
  (* per-request results agree with the aggregate *)
  let served, shed, lost =
    List.fold_left
      (fun (s, d, l) r ->
        match r with
        | Rig.Served _ -> (s + 1, d, l)
        | Rig.Shed _ -> (s, d + 1, l)
        | Rig.Lost _ -> (s, d, l + 1))
      (0, 0, 0) (fates o)
  in
  checki "per-request serves" o.Rig.served served;
  checki "per-request sheds"
    (o.Rig.shed_depth + o.Rig.shed_deadline + o.Rig.shed_brownout)
    shed;
  checki "per-request losses" o.Rig.lost lost

let () =
  Alcotest.run "fleet"
    [
      ( "balancer",
        [
          Alcotest.test_case "deterministic under crashes" `Quick
            test_balancer_deterministic;
          Alcotest.test_case "consistent-hash shard stability" `Quick
            test_balancer_hash_stability;
          Alcotest.test_case "health penalty steers least-loaded" `Quick
            test_balancer_penalty_steers;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "plan deterministic, redistributes" `Quick
            test_plan_deterministic_and_redistributing;
          Alcotest.test_case "failplan validation" `Quick test_failplan_validate;
        ] );
      ( "retry",
        [
          Alcotest.test_case "policies and backoff" `Quick test_retry_policies;
          Alcotest.test_case "per-class budgets" `Quick test_retry_budget;
        ] );
      ( "breaker",
        [ Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle ] );
      ( "accounting",
        [
          Alcotest.test_case "exact through rolling restarts" `Quick
            test_accounting_exact;
          Alcotest.test_case "lost in flight, recovered by retries" `Quick
            test_lost_in_flight_and_retry;
          Alcotest.test_case "total outage exhausts budgets" `Quick
            test_total_outage_accounting;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_invariance;
          Alcotest.test_case "jobs 1 = jobs 4 with the client stack" `Quick
            test_jobs_invariance_resilient;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "restart resumes checkpointed epoch" `Quick
            test_recovery_resumes_epoch;
        ] );
    ]
