(** Client-side per-host health signals and circuit breakers.

    The fleet's planning fold feeds this module a deterministic stream of
    dispatch and observation events (every timestamp a simulated cycle,
    every order tie broken by request id), and reads back two things per
    host:

    - {b availability} — a half-open circuit breaker: [Closed] admits
      traffic; [failure_threshold] {e consecutive} failures trip it
      [Open] for [cooloff_us]; after the cooloff it turns [Half_open]
      (probation — traffic admitted again), where [half_open_probes]
      successes close it and a single failure re-opens it with the
      cooloff doubled per consecutive reopen (capped at 16x);
    - {b penalty} — an advisory load-balancer score built from the
      consecutive-failure streak and the EWMA response latency, in
      queued-request equivalents, consumed by the least-loaded strategy.

    State is rebuilt from the event stream every planning round, so
    breaker trajectories are a pure function of the fold's inputs. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  cooloff_us : float;  (** [Open] duration before probation *)
  half_open_probes : int;  (** successes needed to close from [Half_open] *)
  ewma_alpha : float;  (** latency EWMA weight, in (0, 1] *)
}

val default_config : config
(** Trip after 5 consecutive failures, 5 ms cooloff, 2 probes to close,
    EWMA alpha 0.2. *)

type t

val create : hosts:int -> ?config:config -> est_service_us:float -> unit -> t
(** All breakers start [Closed] with empty signals. [est_service_us]
    normalizes the EWMA into the penalty's queued-request units. Raises
    [Invalid_argument] on a non-positive host count, threshold, cooloff,
    probe count, normalizer, or an alpha outside (0, 1]. *)

val available : t -> host:int -> now:int -> bool
(** May the balancer dispatch to [host] at cycle [now]? Transitions an
    expired [Open] breaker to [Half_open] as a side effect, so calls must
    happen in nondecreasing [now] order (the planning fold's order). *)

val note_dispatch : t -> host:int -> unit
(** An attempt was routed to [host] (raises its in-flight estimate). *)

val note_success : t -> host:int -> latency_us:float -> unit
(** [host] answered in [latency_us]: clears the failure streak, folds the
    latency into the EWMA, and counts toward closing a [Half_open]
    breaker. *)

val note_failure : t -> host:int -> now:int -> unit
(** [host] failed an attempt {e silently} (a lost-in-flight request,
    observed at its rto), at cycle [now]: extends the failure streak and
    may trip the breaker. Explicit load-shed responses deliberately do
    {e not} come through here — they are backpressure, answered fast,
    and feed the retry budget instead; tripping breakers on sheds turns
    overload transients into self-inflicted total outages. *)

val penalty : t -> host:int -> int
(** Advisory score added to the least-loaded balancer's outstanding
    count: [2 * failure_streak] plus the EWMA latency's {e excess} over
    [est_service_us], in units of 4 service times and capped at 4. The
    weighting keeps this lagged signal strictly subordinate to the
    balancer's live outstanding counts — a stale average that can
    outvote live queue lengths makes the whole fleet herd onto
    whichever host last looked fast, re-congesting it and oscillating. *)

val state : t -> host:int -> state
val in_flight : t -> host:int -> int
val trips : t -> int  (** breaker trips, summed over hosts *)

val host_trips : t -> host:int -> int
