(* Per-host client-side health: EWMA latency, in-flight estimate,
   consecutive-failure streak, and a circuit breaker over them. The whole
   module is driven from the fleet's pure planning fold — dispatch and
   observation events arrive in deterministic (time, id) order, and every
   timestamp is a simulated cycle — so breaker trajectories are exactly
   reproducible from the seed, never from wall-clock. *)

module Cost = Sim.Cost

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;
  cooloff_us : float;
  half_open_probes : int;
  ewma_alpha : float;
}

let default_config =
  {
    failure_threshold = 5;
    cooloff_us = 5_000.0;
    half_open_probes = 2;
    ewma_alpha = 0.2;
  }

type host = {
  mutable ewma_us : float; (* 0 until the first latency sample *)
  mutable in_flight : int;
  mutable failures : int; (* consecutive, reset by any success *)
  mutable st : state;
  mutable open_until : int; (* cycles; meaningful while [Open] *)
  mutable probe_ok : int; (* successes observed in [Half_open] *)
  mutable reopen_streak : int; (* consecutive trips without a close *)
  mutable trips : int;
}

type t = {
  cfg : config;
  cooloff : int; (* cycles *)
  est_service_us : float;
  hs : host array;
}

let create ~hosts ?(config = default_config) ~est_service_us () =
  if hosts < 1 then invalid_arg "Health.create: hosts < 1";
  if config.failure_threshold < 1 then
    invalid_arg "Health.create: failure_threshold < 1";
  if config.cooloff_us <= 0.0 then invalid_arg "Health.create: cooloff_us <= 0";
  if config.half_open_probes < 1 then
    invalid_arg "Health.create: half_open_probes < 1";
  if config.ewma_alpha <= 0.0 || config.ewma_alpha > 1.0 then
    invalid_arg "Health.create: ewma_alpha outside (0, 1]";
  if est_service_us <= 0.0 then
    invalid_arg "Health.create: est_service_us <= 0";
  {
    cfg = config;
    cooloff = max 1 (Cost.cycles_of_us config.cooloff_us);
    est_service_us;
    hs =
      Array.init hosts (fun _ ->
          {
            ewma_us = 0.0;
            in_flight = 0;
            failures = 0;
            st = Closed;
            open_until = 0;
            probe_ok = 0;
            reopen_streak = 0;
            trips = 0;
          });
  }

(* Each consecutive reopen doubles the cooloff (capped at 16x): a host
   that keeps failing its probation is probed less and less often. *)
let cooloff_for t h = t.cooloff * (1 lsl min h.reopen_streak 4)

let available t ~host ~now =
  let h = t.hs.(host) in
  match h.st with
  | Closed -> true
  | Half_open -> true
  | Open ->
      if now >= h.open_until then begin
        (* probation: admit traffic again, but a single failure re-opens
           and [half_open_probes] successes are needed to close *)
        h.st <- Half_open;
        h.probe_ok <- 0;
        true
      end
      else false

let note_dispatch t ~host = t.hs.(host).in_flight <- t.hs.(host).in_flight + 1

let settle h = h.in_flight <- max 0 (h.in_flight - 1)

let note_success t ~host ~latency_us =
  let h = t.hs.(host) in
  settle h;
  h.failures <- 0;
  h.ewma_us <-
    (if h.ewma_us = 0.0 then latency_us
     else
       (t.cfg.ewma_alpha *. latency_us)
       +. ((1.0 -. t.cfg.ewma_alpha) *. h.ewma_us));
  match h.st with
  | Half_open ->
      h.probe_ok <- h.probe_ok + 1;
      if h.probe_ok >= t.cfg.half_open_probes then begin
        h.st <- Closed;
        h.reopen_streak <- 0
      end
  | Closed | Open -> ()

let trip t h ~now =
  h.trips <- h.trips + 1;
  h.open_until <- now + cooloff_for t h;
  h.reopen_streak <- h.reopen_streak + 1;
  h.st <- Open

let note_failure t ~host ~now =
  let h = t.hs.(host) in
  settle h;
  h.failures <- h.failures + 1;
  match h.st with
  | Half_open -> trip t h ~now (* failed probation: re-open, escalated *)
  | Closed -> if h.failures >= t.cfg.failure_threshold then trip t h ~now
  | Open -> ()

(* Extra load-balancer score in queued-request equivalents: the failure
   streak plus the EWMA latency measured in multiples of the nominal
   service time. Purely advisory — availability is the breaker's job. *)
(* Only the latency EXCESS over the service estimate counts, and it is
   capped at a modest queue-equivalent: the EWMA is a lagged signal, and
   letting it dominate the balancer's live outstanding counts makes the
   whole fleet herd onto whichever host's stale average looks best —
   amplifying exactly the congestion it is meant to avoid. *)
let penalty t ~host =
  let h = t.hs.(host) in
  (2 * h.failures)
  + min 4
      (int_of_float
         (Float.max 0.0
            ((h.ewma_us -. t.est_service_us) /. (4.0 *. t.est_service_us))))

let state t ~host = t.hs.(host).st
let in_flight t ~host = t.hs.(host).in_flight
let trips t = Array.fold_left (fun acc h -> acc + h.trips) 0 t.hs
let host_trips t ~host = t.hs.(host).trips
