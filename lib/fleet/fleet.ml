module Balancer = Balancer
module Failplan = Failplan
module Health = Health
module Retry = Retry
module Rig = Workload.Rig
module Cost = Sim.Cost
module Runtime = Ccr.Runtime
module Loadgen = Service.Loadgen
module Squeue = Service.Squeue

(* Shift applied to every intended arrival, so that host boot (the
   session-table build) happens before the measured trace. *)
let warmup_us = 2_000.0

(* The balancer's service-time model for least-loaded accounting. *)
let est_service_us = 60.0

(* Every host: a 12 MiB heap under the default quarantine policy, a
   4096-entry session table, and 30k cycles of compute per request. *)
let heap_mb = 12
let session_slots = 4_096
let compute_per_req = 30_000

type resilience = {
  retry : Retry.policy;
  hedge : Retry.hedge option;
  breaker : Health.config option;
  brownout : Squeue.brownout option;
  rto_us : float;
  max_rounds : int;
}

let default_resilience =
  {
    retry = Retry.No_retry;
    hedge = None;
    breaker = None;
    brownout = None;
    rto_us = 2_000.0;
    max_rounds = 6;
  }

type config = {
  hosts : int;
  balancer : Balancer.strategy;
  failures : Failplan.kind;
  windows_override : Failplan.window list option;
  pattern : Loadgen.pattern;
  requests : int;
  users : int;
  critical : float;
  background : float;
  mode : Runtime.mode;
  governed : bool;
  servers_per_host : int;
  queue_depth : int;
  deadline_us : float option;
  target_p99_us : float;
  slices : int;
  resilience : resilience;
  seed : int;
}

let default_config =
  {
    hosts = 3;
    balancer = Balancer.Round_robin;
    failures = Failplan.Rolling;
    windows_override = None;
    pattern =
      Loadgen.Diurnal { low = 20_000.0; high = 60_000.0; period_us = 8_000.0 };
    requests = 6_000;
    users = 1_000_000;
    critical = 0.15;
    background = 0.25;
    mode = Runtime.Safe Ccr.Revoker.Reloaded;
    governed = true;
    servers_per_host = 2;
    queue_depth = 64;
    deadline_us = None;
    target_p99_us = 1_000.0;
    slices = 12;
    resilience = default_resilience;
    seed = 11;
  }

let topology cfg = Printf.sprintf "flat/%d" cfg.hosts

(* ---- attempts: the unit the client layer reasons about ----

   Attempt 0 of a request is the original send; retries extend the
   non-hedge chain ([at_seq] 1, 2, ...) and at most one hedge duplicates
   the original. The attempt set is append-only across planning rounds:
   once the client has decided to send something that decision is frozen
   — a later round may revise the attempt's {e fate} (the hosts are
   re-simulated under the grown trace), never whether it was sent. The
   final round therefore defines the run; earlier rounds are
   successively better approximations of what the client knew. *)

type attempt = {
  at_idx : int; (* global id; doubles as the arrival id *)
  at_req : int; (* the original request index *)
  at_seq : int; (* position in the non-hedge chain; hedges carry 0 *)
  at_hedge : bool;
  at_time : int; (* client send time, cycles *)
  at_avoid : int; (* host a hedge steers away from; -1 for none *)
}

type att_out =
  | O_served of { o_host : int; o_completed : int; o_lat_us : float }
  | O_shed of { o_host : int; o_why : int; o_at : int }
  | O_lost of { o_host : int; o_at : int }
  | O_dropped (* no admissible host at dispatch: client-side fast failure *)

(* When the client learns an attempt's fate: refusals and answers are
   heard when they happen, a balancer drop is instant, and a lost
   request is only ever discovered by retransmission timeout. *)
let observed_at ~rto (a : attempt) = function
  | O_served { o_completed; _ } -> o_completed
  | O_shed { o_at; _ } -> o_at
  | O_lost _ -> a.at_time + rto
  | O_dropped -> a.at_time

(* everything [plan]/[run] precompute once, before any round *)
type pre = {
  p_warmup : int;
  p_horizon : int;
  p_windows : Failplan.window list;
  p_users : int array;
  p_classes : int array;
  p_intended : int array; (* original intended arrival per request *)
}

let validate_resilience r =
  Retry.validate r.retry;
  Option.iter Retry.validate_hedge r.hedge;
  if r.rto_us <= 0.0 then invalid_arg "Fleet: rto_us <= 0";
  if r.max_rounds < 1 then invalid_arg "Fleet: max_rounds < 1"

let precompute cfg =
  if cfg.hosts < 1 then invalid_arg "Fleet.plan: hosts < 1";
  if cfg.requests < 1 then invalid_arg "Fleet.plan: requests < 1";
  if cfg.slices < 1 then invalid_arg "Fleet.plan: slices < 1";
  validate_resilience cfg.resilience;
  let offsets =
    Loadgen.schedule
      { Loadgen.pattern = cfg.pattern; requests = cfg.requests; seed = cfg.seed }
  in
  let warmup = Cost.cycles_of_us warmup_us in
  let horizon = warmup + offsets.(cfg.requests - 1) in
  let windows =
    match cfg.windows_override with
    | None ->
        Failplan.plan cfg.failures ~hosts:cfg.hosts ~horizon:(max 8 horizon)
          ~seed:cfg.seed
    | Some ws -> (
        match
          Failplan.validate ~hosts:cfg.hosts ~horizon:(max 8 horizon) ws
        with
        | Ok () -> ws
        | Error e -> invalid_arg ("Fleet: windows_override: " ^ e))
  in
  {
    p_warmup = warmup;
    p_horizon = horizon;
    p_windows = windows;
    p_users =
      Loadgen.user_stream ~seed:cfg.seed ~population:cfg.users
        ~requests:cfg.requests;
    p_classes =
      Array.map Loadgen.cls_code
        (Loadgen.class_stream ~seed:cfg.seed ~requests:cfg.requests
           ~critical:cfg.critical ~background:cfg.background);
    p_intended = Array.map (fun off -> warmup + off) offsets;
  }

let originals pre =
  Array.mapi
    (fun i intended ->
      {
        at_idx = i;
        at_req = i;
        at_seq = 0;
        at_hedge = false;
        at_time = intended;
        at_avoid = -1;
      })
    pre.p_intended

(* ---- one planning round ----

   Route every attempt while replaying the {e previous} round's client
   observations into the health signals, merged into one time-ordered
   event stream (observations before dispatches at equal cycles, then by
   id) so breaker trajectories are a pure function of the fold input. *)

type ev =
  | Ev_ok of { host : int; lat_us : float }
  | Ev_fail of { host : int }
  | Ev_dispatch of int (* attempt index *)

type arrival = { a_id : int; a_intended : int; a_cls : int }

type routed = {
  r_shards : arrival array array;
  r_placement : int array; (* per attempt: host, or -1 for dropped *)
  r_redistributed : int;
  r_trips : int;
}

let route_round cfg pre ~attempts ~prev =
  let n = Array.length attempts in
  let rto = max 1 (Cost.cycles_of_us cfg.resilience.rto_us) in
  let health =
    Option.map
      (fun c ->
        Health.create ~hosts:cfg.hosts ~config:c ~est_service_us ())
      cfg.resilience.breaker
  in
  let penalty =
    match health with
    | Some hl -> fun h -> Health.penalty hl ~host:h
    | None -> fun _ -> 0
  in
  let bal =
    Balancer.create cfg.balancer ~hosts:cfg.hosts
      ~est_service_cycles:(max 1 (Cost.cycles_of_us est_service_us))
  in
  let evs = ref [] in
  Array.iter
    (fun a -> evs := (a.at_time, 1, a.at_idx, Ev_dispatch a.at_idx) :: !evs)
    attempts;
  (match prev with
  | None -> ()
  | Some (pattempts, pouts) ->
      Array.iteri
        (fun i (out : att_out) ->
          let t = observed_at ~rto pattempts.(i) out in
          match out with
          | O_served { o_host; o_lat_us; _ } ->
              evs :=
                (t, 0, i, Ev_ok { host = o_host; lat_us = o_lat_us }) :: !evs
          | O_lost { o_host; _ } ->
              evs := (t, 0, i, Ev_fail { host = o_host }) :: !evs
          (* An explicit shed is backpressure — the host answered,
             quickly, saying "not now". It feeds the retry budget, not
             the breaker: tripping breakers on load-shed responses turns
             every overload transient into a self-inflicted outage (all
             breakers open at once, every dispatch drops). Breakers are
             for SILENCE — the rto-observed losses a crashed host
             leaves behind. *)
          | O_shed _ | O_dropped -> ())
        pouts);
  let evs = List.sort compare !evs in
  let shards = Array.init cfg.hosts (fun _ -> ref []) in
  let placement = Array.make n (-1) in
  let redistributed = ref 0 in
  List.iter
    (fun (t, _, _, ev) ->
      match ev with
      | Ev_ok { host; lat_us } ->
          Option.iter
            (fun hl -> Health.note_success hl ~host ~latency_us:lat_us)
            health
      | Ev_fail { host } ->
          Option.iter (fun hl -> Health.note_failure hl ~host ~now:t) health
      | Ev_dispatch idx -> (
          let a = attempts.(idx) in
          let admissible h =
            (not (Failplan.down pre.p_windows ~host:h ~at:t))
            &&
            match health with
            | None -> true
            | Some hl -> Health.available hl ~host:h ~now:t
          in
          (* a hedge avoids its primary's host — unless honouring that
             would leave nowhere to go *)
          let avoid =
            if a.at_avoid < 0 then -1
            else begin
              let other = ref false in
              for h = 0 to cfg.hosts - 1 do
                if h <> a.at_avoid && admissible h then other := true
              done;
              if !other then a.at_avoid else -1
            end
          in
          let up h = h <> avoid && admissible h in
          match
            Balancer.route ~penalty bal ~now:t ~user:pre.p_users.(a.at_req) ~up
          with
          | None -> ()
          | Some d ->
              if d.Balancer.redistributed then incr redistributed;
              placement.(idx) <- d.Balancer.host;
              Option.iter
                (fun hl -> Health.note_dispatch hl ~host:d.Balancer.host)
                health;
              shards.(d.Balancer.host) :=
                {
                  a_id = a.at_idx;
                  a_intended = a.at_time;
                  a_cls = pre.p_classes.(a.at_req);
                }
                :: !(shards.(d.Balancer.host))))
    evs;
  {
    r_shards = Array.map (fun l -> Array.of_list (List.rev !l)) shards;
    r_placement = placement;
    r_redistributed = !redistributed;
    r_trips = (match health with None -> 0 | Some hl -> Health.trips hl);
  }

(* ---- the public pure planning phase (round 0: no client knowledge) *)

type dispatch = {
  d_offered : int;
  d_assign : arrival array array;
  d_redistributed : int;
  d_lb_dropped : int;
  d_windows : Failplan.window list;
  d_horizon : int;
}

let plan cfg =
  let pre = precompute cfg in
  let r = route_round cfg pre ~attempts:(originals pre) ~prev:None in
  let dropped =
    Array.fold_left
      (fun acc p -> if p < 0 then acc + 1 else acc)
      0 r.r_placement
  in
  {
    d_offered = cfg.requests;
    d_assign = r.r_shards;
    d_redistributed = r.r_redistributed;
    d_lb_dropped = dropped;
    d_windows = pre.p_windows;
    d_horizon = pre.p_horizon;
  }

(* ---- the spawn phase: what would the client send next? ----

   Replays this round's observations in time order through the per-class
   retry budget and emits the retries and hedges the client would have
   sent but has not yet. Recomputed from scratch every round (the
   observations change), but existing attempts stay frozen: a failure
   whose chain already has a successor only replays its budget charge,
   and a request that already carries a hedge never grows another. *)

type spawn = {
  s_new : attempt list; (* in discovery order, at_idx unassigned (-1) *)
  s_denied : int; (* retries refused by a dry budget *)
}

let spawn_phase cfg pre ~attempts ~outs ~placement =
  let rto = max 1 (Cost.cycles_of_us cfg.resilience.rto_us) in
  let policy = cfg.resilience.retry in
  let budget = Retry.budget_create policy ~classes:3 in
  (* per-request chain state, from the frozen attempt set *)
  let nreq = cfg.requests in
  let max_seq = Array.make nreq 0 in
  let chain_len = Array.make nreq 1 in
  let has_hedge = Array.make nreq false in
  Array.iter
    (fun a ->
      if a.at_hedge then has_hedge.(a.at_req) <- true
      else if a.at_seq > 0 then begin
        max_seq.(a.at_req) <- max max_seq.(a.at_req) a.at_seq;
        chain_len.(a.at_req) <- chain_len.(a.at_req) + 1
      end)
    attempts;
  let frozen_max = Array.copy max_seq in
  (* when (if ever) the client first hears a success per request *)
  let first_ok = Array.make nreq max_int in
  Array.iteri
    (fun i out ->
      match out with
      | O_served { o_completed; _ } ->
          let r = attempts.(i).at_req in
          if o_completed < first_ok.(r) then first_ok.(r) <- o_completed
      | _ -> ())
    outs;
  (* hedge delay: the configured percentile of this round's served
     latencies (needs a sample base), floored at [h_min_us] *)
  let hedge_delay =
    match cfg.resilience.hedge with
    | None -> None
    | Some h ->
        let hist = Stats.Histogram.create () in
        Array.iter
          (function
            | O_served { o_lat_us; _ } -> Stats.Histogram.record hist o_lat_us
            | _ -> ())
          outs;
        let us =
          if Stats.Histogram.count hist >= 16 then
            Float.max h.h_min_us (Stats.Histogram.percentile hist h.h_pct)
          else h.h_min_us
        in
        if us <= 0.0 then None else Some (max 1 (Cost.cycles_of_us us))
  in
  let obs =
    List.sort compare
      (List.init (Array.length attempts) (fun i ->
           (observed_at ~rto attempts.(i) outs.(i), i)))
  in
  let fresh = ref [] in
  List.iter
    (fun (t, i) ->
      let a = attempts.(i) in
      let req = a.at_req in
      let cls = pre.p_classes.(req) in
      (match outs.(i) with
      | O_served _ -> Retry.budget_refill budget ~cls
      | O_shed _ | O_lost _ | O_dropped ->
          if a.at_hedge then ()
          else if a.at_seq < frozen_max.(req) then
            (* this failure's retry was already sent in an earlier
               round; replay its budget charge so the final round's
               accounting covers every retry actually in the trace *)
            ignore (Retry.budget_take budget ~cls)
          else if
            (* retry only from the chain's tip, only while the client is
               still waiting, within the attempt cap, budget permitting *)
            a.at_seq = max_seq.(req)
            && first_ok.(req) > t
            && chain_len.(req) < Retry.max_attempts policy
          then
            if Retry.budget_take budget ~cls then begin
              let delay =
                Cost.cycles_of_us
                  (Retry.backoff_us policy ~seed:cfg.seed ~req
                     ~attempt:(a.at_seq + 1))
              in
              max_seq.(req) <- a.at_seq + 1;
              chain_len.(req) <- chain_len.(req) + 1;
              fresh :=
                {
                  at_idx = -1;
                  at_req = req;
                  at_seq = a.at_seq + 1;
                  at_hedge = false;
                  at_time = t + max 0 delay;
                  at_avoid = -1;
                }
                :: !fresh
            end);
      (* tail hedging: if the original send was silent past the hedge
         delay, the client duplicated it toward a different host —
         whatever the primary's fate later turned out to be *)
      match hedge_delay with
      | Some delay
        when a.at_seq = 0
             && (not a.at_hedge)
             && (not has_hedge.(req))
             && t > a.at_time + delay ->
          has_hedge.(req) <- true;
          fresh :=
            {
              at_idx = -1;
              at_req = req;
              at_seq = 0;
              at_hedge = true;
              at_time = a.at_time + delay;
              at_avoid = placement.(i);
            }
            :: !fresh
      | _ -> ())
    obs;
  { s_new = List.rev !fresh; s_denied = Retry.budget_denied budget }

(* ---- outcome ---- *)

type outcome = {
  offered : int;
  served : int; (* answered on the original send *)
  retried_ok : int; (* answered first by a retry *)
  hedged_ok : int; (* answered first by the hedge *)
  shed_depth : int;
  shed_deadline : int;
  shed_brownout : int;
  lost : int; (* terminal fate: destroyed in a crash, client timed out *)
  redistributed : int;
  lb_dropped : int;
  violations : int;
  hist : Stats.Histogram.t;
  slice_hists : Stats.Histogram.t array;
  makespan_cycles : int;
  goodput_rps : float;
  epochs : int;
  epoch_resumes : int;
  sweep_crash_retries : int;
  chaos_injected : int;
  max_pause_us : float;
  attempts : int;
  retries_sent : int;
  hedges_sent : int;
  dup_served : int; (* extra answers beyond each request's first *)
  budget_exhausted : int;
  breaker_trips : int;
  brownout_shifts : int;
  rounds : int;
  hosts : Rig.outcome list;
  windows : Failplan.window list;
  clean : bool;
  report : string;
}

(* Splitmix-style decorrelation so host 0 of seed 12 never shares a
   stream with host 1 of seed 11. *)
let host_seed seed host = (seed * 1_000_003) + (host * 8191) + 1

let run ?(check = false) ?jobs cfg =
  let pre = precompute cfg in
  let host_cfg host =
    {
      Rig.name = Printf.sprintf "fleet-h%d" host;
      mode = cfg.mode;
      governed = cfg.governed;
      policy = None;
      heap_mb;
      servers = cfg.servers_per_host;
      queue_depth = cfg.queue_depth;
      deadline_us = cfg.deadline_us;
      brownout = cfg.resilience.brownout;
      target_p99_us = cfg.target_p99_us;
      session_slots;
      compute_per_req;
      seed = host_seed cfg.seed host;
      clock = Rig.Absolute;
      windows = Failplan.host_windows pre.p_windows ~host;
      check;
    }
  in
  (* Every host runs its shard on the fleet clock; hosts share nothing,
     so they fan out across domains. *)
  let run_host host shard =
    Rig.run (host_cfg host)
      ~arrivals:(Array.map (fun a -> a.a_intended) shard)
      ~classes:(fun i -> shard.(i).a_cls)
  in
  (* shard memo: a host whose shard is unchanged between rounds would
     re-simulate to the identical outcome, so reuse it *)
  let cache : (arrival array * Rig.outcome) option array =
    Array.make cfg.hosts None
  in
  let simulate shards =
    let dirty =
      List.filter
        (fun h ->
          match cache.(h) with
          | Some (prev, _) -> prev <> shards.(h)
          | None -> true)
        (List.init cfg.hosts Fun.id)
    in
    let fresh =
      Parallel.Pool.map ?jobs (fun host -> run_host host shards.(host)) dirty
    in
    List.iter2 (fun h o -> cache.(h) <- Some (shards.(h), o)) dirty fresh;
    List.init cfg.hosts (fun h -> snd (Option.get cache.(h)))
  in
  let outs_of attempts shards host_outcomes =
    let outs = Array.make (Array.length attempts) O_dropped in
    List.iteri
      (fun host (o : Rig.outcome) ->
        Array.iteri
          (fun pos a ->
            match Rig.fate o.Rig.fates pos with
            | None -> ()
            | Some (Rig.Served { completed; latency_us }) ->
                outs.(a.a_id) <-
                  O_served
                    { o_host = host; o_completed = completed; o_lat_us = latency_us }
            | Some (Rig.Shed { why; at }) ->
                outs.(a.a_id) <- O_shed { o_host = host; o_why = why; o_at = at }
            | Some (Rig.Lost { at }) ->
                outs.(a.a_id) <- O_lost { o_host = host; o_at = at })
          shards.(host))
      host_outcomes;
    outs
  in
  (* the round loop: grow the attempt set until the client would send
     nothing new (or gives up at [max_rounds]) *)
  let rec loop attempts prev rounds =
    let routed = route_round cfg pre ~attempts ~prev in
    let host_outcomes = simulate routed.r_shards in
    let outs = outs_of attempts routed.r_shards host_outcomes in
    let sp = spawn_phase cfg pre ~attempts ~outs ~placement:routed.r_placement in
    if sp.s_new = [] || rounds >= cfg.resilience.max_rounds then
      (attempts, routed, host_outcomes, outs, sp, rounds)
    else
      let base = Array.length attempts in
      let extra =
        List.mapi (fun k a -> { a with at_idx = base + k }) sp.s_new
      in
      loop
        (Array.append attempts (Array.of_list extra))
        (Some (attempts, outs))
        (rounds + 1)
  in
  let atts, routed, host_outcomes, outs, sp, rounds =
    loop (originals pre) None 1
  in
  (* ---- final classification: one terminal fate per request ---- *)
  let nreq = cfg.requests in
  let first_ok_t = Array.make nreq max_int in
  let first_ok_idx = Array.make nreq (-1) in
  let tip_idx = Array.make nreq (-1) in
  Array.iteri
    (fun i (a : attempt) ->
      if not a.at_hedge then
        if tip_idx.(a.at_req) < 0 || a.at_seq > atts.(tip_idx.(a.at_req)).at_seq
        then tip_idx.(a.at_req) <- i)
    atts;
  let total_serves = ref 0 in
  Array.iteri
    (fun i out ->
      match out with
      | O_served { o_completed; _ } ->
          incr total_serves;
          let r = atts.(i).at_req in
          if o_completed < first_ok_t.(r) then begin
            first_ok_t.(r) <- o_completed;
            first_ok_idx.(r) <- i
          end
      | _ -> ())
    outs;
  let hist = Stats.Histogram.create () in
  let slice_hists =
    Array.init cfg.slices (fun _ -> Stats.Histogram.create ())
  in
  let span = max 1 (pre.p_horizon - pre.p_warmup) in
  let slice_of intended =
    let dt = max 0 (intended - pre.p_warmup) in
    min (cfg.slices - 1) (dt * cfg.slices / span)
  in
  let served = ref 0
  and retried_ok = ref 0
  and hedged_ok = ref 0
  and shed_depth = ref 0
  and shed_deadline = ref 0
  and shed_brownout = ref 0
  and lost = ref 0
  and lb_dropped = ref 0
  and violations = ref 0
  and ok = ref 0 in
  for r = 0 to nreq - 1 do
    if first_ok_idx.(r) >= 0 then begin
      incr ok;
      let a = atts.(first_ok_idx.(r)) in
      if a.at_hedge then incr hedged_ok
      else if a.at_seq = 0 then incr served
      else incr retried_ok;
      (* end-to-end latency from the ORIGINAL intended arrival to the
         first answer the client hears: retries and hedges never reset
         the clock, so the tail stays coordinated-omission-free *)
      let lat_us = Cost.cycles_to_us (first_ok_t.(r) - pre.p_intended.(r)) in
      Stats.Histogram.record hist lat_us;
      Stats.Histogram.record slice_hists.(slice_of pre.p_intended.(r)) lat_us;
      if lat_us > cfg.target_p99_us then incr violations
    end
    else
      match outs.(tip_idx.(r)) with
      | O_served _ -> assert false (* a success would have set first_ok *)
      | O_shed { o_why; _ } ->
          if o_why = Squeue.why_deadline then incr shed_deadline
          else if o_why = Squeue.why_brownout then incr shed_brownout
          else incr shed_depth
      | O_lost _ -> incr lost
      | O_dropped -> incr lb_dropped
  done;
  let sum f = List.fold_left (fun a o -> a + f o) 0 host_outcomes in
  let makespan =
    List.fold_left
      (fun a (o : Rig.outcome) -> max a o.Rig.result.Workload.Result.wall_cycles)
      0 host_outcomes
  in
  let n_atts = Array.length atts in
  let dropped_atts =
    Array.fold_left
      (fun a p -> if p < 0 then a + 1 else a)
      0 routed.r_placement
  in
  let retries_sent =
    Array.fold_left
      (fun a at -> if (not at.at_hedge) && at.at_seq > 0 then a + 1 else a)
      0 atts
  in
  let hedges_sent =
    Array.fold_left (fun a at -> if at.at_hedge then a + 1 else a) 0 atts
  in
  let accounted =
    !served + !retried_ok + !hedged_ok + !shed_depth + !shed_deadline
    + !shed_brownout + !lost + !lb_dropped
    = cfg.requests
    && sum (fun o -> o.Rig.arrivals) + dropped_atts = n_atts
  in
  let report = Buffer.create 0 in
  List.iter
    (fun (o : Rig.outcome) -> Buffer.add_string report o.Rig.report)
    host_outcomes;
  if not accounted then
    Buffer.add_string report
      (Printf.sprintf
         "fleet: accounting drift: ok %d+%d+%d + shed %d+%d+%d + lost %d + \
          dropped %d <> offered %d (attempts %d)\n"
         !served !retried_ok !hedged_ok !shed_depth !shed_deadline
         !shed_brownout !lost !lb_dropped cfg.requests n_atts);
  {
    offered = cfg.requests;
    served = !served;
    retried_ok = !retried_ok;
    hedged_ok = !hedged_ok;
    shed_depth = !shed_depth;
    shed_deadline = !shed_deadline;
    shed_brownout = !shed_brownout;
    lost = !lost;
    redistributed = routed.r_redistributed;
    lb_dropped = !lb_dropped;
    violations = !violations;
    hist;
    slice_hists;
    makespan_cycles = makespan;
    goodput_rps =
      (if makespan = 0 then 0.0
       else
         float_of_int (!ok - !violations)
         /. (float_of_int makespan /. Cost.clock_hz));
    epochs = sum (fun o -> o.Rig.epochs);
    epoch_resumes = sum (fun o -> o.Rig.epoch_resumes);
    sweep_crash_retries = sum (fun o -> o.Rig.sweep_crash_retries);
    chaos_injected = sum (fun o -> o.Rig.chaos_injected);
    max_pause_us =
      List.fold_left
        (fun a (o : Rig.outcome) -> Float.max a o.Rig.max_pause_us)
        0.0 host_outcomes;
    attempts = n_atts;
    retries_sent;
    hedges_sent;
    dup_served = !total_serves - !ok;
    budget_exhausted = sp.s_denied;
    breaker_trips = routed.r_trips;
    brownout_shifts = sum (fun o -> o.Rig.brownout_shifts);
    rounds;
    hosts = host_outcomes;
    windows = pre.p_windows;
    clean =
      accounted
      && List.for_all (fun (o : Rig.outcome) -> o.Rig.clean) host_outcomes;
    report = Buffer.contents report;
  }
