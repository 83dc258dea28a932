(** The fleet simulator: N independent host machines behind a pluggable
    balancer, fed one global open-loop trace, with seeded failures and a
    deterministic client-resilience stack (retries, hedging, circuit
    breakers, brownout).

    Execution is a fixed point of three phases per {e round}:

    + {b plan} (pure, sequential): draw the global arrival schedule,
      user and class streams from the seed, plan the failure windows
      over the trace horizon, and route every {e attempt} through the
      balancer — against the up/down state at its send time, gated by
      each host's circuit breaker, with the previous round's client
      observations replayed into the health signals in one time-ordered
      event fold. A request routed away from its first-choice host keeps
      its timestamp (no coordinated omission through failovers).
    + {b simulate} (parallel): every host runs its shard through the
      serving rig ({!Workload.Rig}) on the fleet clock, with its crash
      windows, on a {!Parallel.Pool} worker — wall-clock scales with
      [jobs] while the outcome is byte-identical at any job count.
      Hosts whose shard did not change from the previous round reuse
      their outcome (shard memoization).
    + {b spawn} (pure): replay the round's observations through the
      per-class retry budgets and emit the retries and hedges the client
      would have sent. New attempts are appended — existing ones are
      frozen — and the loop re-plans until nothing new is spawned or
      [max_rounds] is hit. {e The final round defines the run}; earlier
      rounds are successively better approximations of what the client
      knew when it decided to resend.

    The client hears a shed or an answer when it happens, a balancer
    drop immediately, and a {e lost} request (destroyed by a host crash)
    only via its retransmission timeout [rto_us] — loss is silence, not
    a refusal.

    Accounting is exact by construction and checked:
    [served + retried_ok + hedged_ok + shed + lost + lb_dropped =
    offered] over requests, and every attempt lands in exactly one
    host's shard or is a balancer drop. *)

(* fleet.ml is the library interface module, so the components are
   re-exported here (Fleet.Balancer, Fleet.Failplan, Fleet.Health,
   Fleet.Retry). *)
module Balancer = Balancer
module Failplan = Failplan
module Health = Health
module Retry = Retry

type resilience = {
  retry : Retry.policy;
  hedge : Retry.hedge option;  (** tail hedging of original sends *)
  breaker : Health.config option;
      (** per-host circuit breakers + health-aware placement *)
  brownout : Service.Squeue.brownout option;
      (** per-host brownout band (low classes shed first, governor
          defers revocation harder while engaged) *)
  rto_us : float;
      (** client retransmission timeout — how long a lost request stays
          silent before the client acts *)
  max_rounds : int;  (** re-planning rounds before the client gives up *)
}

val default_resilience : resilience
(** No retries, no hedging, no breakers, no brownout; 2 ms RTO, 6
    rounds — the control configuration, behaviourally identical to the
    pre-resilience fleet. *)

type config = {
  hosts : int;
  balancer : Balancer.strategy;
  failures : Failplan.kind;
  windows_override : Failplan.window list option;
      (** explicit failure schedule instead of [failures]; validated by
          {!Failplan.validate} (tests use it for total-outage traces) *)
  pattern : Service.Loadgen.pattern;
  requests : int;
  users : int;  (** simulated user population the trace samples from *)
  critical : float;  (** fraction of requests in the critical class *)
  background : float;  (** fraction in the background class *)
  mode : Ccr.Runtime.mode;
  governed : bool;
  servers_per_host : int;
  queue_depth : int;
  deadline_us : float option;
      (** base queueing deadline, stretched per class (critical 1x,
          normal 4x, background exempt) *)
  target_p99_us : float;
  slices : int;
      (** time slices for the latency-over-time record (the restart-wave
          p99.9 curve) *)
  resilience : resilience;
  seed : int;
}

val default_config : config
(** 3 hosts, round-robin, rolling restarts, a diurnal trace of 6000
    requests sampled from a million users (15% critical / 25%
    background), 12 time slices, {!default_resilience}.

    Fixed for every run: arrivals start 2 ms into the run so that host
    boot happens before the measured trace; the least-loaded balancer
    models a 60 µs service time; each host has a 12 MiB heap under the
    default quarantine policy, 4096 sessions, 3 temporaries and 30k
    cycles of compute per request. *)

val topology : config -> string
(** Topology label carried into result records, e.g. ["flat/3"]: every
    host is equivalent behind one balancer. *)

type arrival = {
  a_id : int;  (** fleet-wide attempt id *)
  a_intended : int;  (** intended arrival, fleet-clock cycles *)
  a_cls : int;  (** priority class code ({!Service.Loadgen.cls_code}) *)
}

type dispatch = {
  d_offered : int;
  d_assign : arrival array array;
      (** per host: its shard of arrivals, in dispatch order *)
  d_redistributed : int;
      (** requests routed away from their first-choice host *)
  d_lb_dropped : int;  (** requests dropped: no admissible host *)
  d_windows : Failplan.window list;
  d_horizon : int;  (** last intended arrival, cycles *)
}

val plan : config -> dispatch
(** The pure dispatch phase alone — round 0, before any client
    observation exists; deterministic, no machine is built. Tests
    cross-check {!run}'s accounting against it. Raises
    [Invalid_argument] on an invalid config ([hosts < 1],
    [requests < 1], out-of-range resilience parameters, or a
    [windows_override] rejected by {!Failplan.validate}). *)

type outcome = {
  offered : int;
  served : int;  (** answered on the original send *)
  retried_ok : int;  (** answered first by a retry *)
  hedged_ok : int;  (** answered first by the hedge *)
  shed_depth : int;
  shed_deadline : int;
  shed_brownout : int;
  lost : int;
      (** terminal fate lost: destroyed by a crash and never recovered
          by a retry — the client timed out *)
  redistributed : int;
  lb_dropped : int;
  violations : int;  (** answered requests over the SLO target *)
  hist : Stats.Histogram.t;
      (** fleet-wide {e end-to-end} latency: first answer minus the
          {e original} intended arrival — retries and hedges never reset
          the clock *)
  slice_hists : Stats.Histogram.t array;
      (** end-to-end latency by original-arrival time slice — slices
          covering a crash window show the wave passing through *)
  makespan_cycles : int;  (** slowest host's wall end, final round *)
  goodput_rps : float;
      (** answered-within-SLO requests per simulated second of makespan *)
  epochs : int;
  epoch_resumes : int;
  sweep_crash_retries : int;
  chaos_injected : int;
  max_pause_us : float;  (** worst single revocation pause fleet-wide *)
  attempts : int;  (** total sends: originals + retries + hedges *)
  retries_sent : int;
  hedges_sent : int;
  dup_served : int;
      (** answers beyond each request's first (hedge and retry both
          landing) — wasted server work *)
  budget_exhausted : int;  (** retries refused by a dry class budget *)
  breaker_trips : int;  (** circuit-breaker trips, final round *)
  brownout_shifts : int;  (** brownout band transitions, fleet-wide *)
  rounds : int;  (** planning rounds until fixed point (or give-up) *)
  hosts : Workload.Rig.outcome list;  (** in host order, final round *)
  windows : Failplan.window list;
  clean : bool;
      (** all host checkers clean (when [check]) and fleet accounting
          exact *)
  report : string;  (** buffered findings, printable by the caller *)
}

val run : ?check:bool -> ?jobs:int -> config -> outcome
(** Run the round loop to its fixed point and aggregate the final round.
    The outcome is identical for any [jobs]. *)
