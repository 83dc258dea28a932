(** Open-loop load generation: seeded arrival-time schedules.

    An arrival schedule is drawn once, up front, from a splitmix64 Prng —
    a pure function of (pattern, request count, seed). The generator
    thread then releases requests at those *intended* times no matter how
    the server is doing, which is the open-loop discipline that makes
    coordinated omission impossible by construction: a server stall
    cannot slow the arrival process down, it can only grow the queue. *)

type pattern =
  | Poisson of float  (** constant offered rate, req/s *)
  | Bursty of { base : float; peak : float; period_us : float; duty : float }
      (** square wave: [peak] req/s for the first [duty] fraction of each
          [period_us] window, [base] req/s for the rest *)
  | Ramp of { from_rate : float; to_rate : float }
      (** linear in request index: first request offered at [from_rate],
          last at [to_rate] (req/s) *)
  | Diurnal of { low : float; high : float; period_us : float }
      (** sinusoid between [low] and [high] req/s with period [period_us]
          — a compressed day/night cycle with troughs for the governor to
          defer revocation into *)

type config = { pattern : pattern; requests : int; seed : int }

val pattern_name : pattern -> string

val pattern_at : string -> qps:float -> pattern
(** The pattern named by {!pattern_name} with [qps] as its {e mean}
    rate, so sweep points stay comparable across patterns: bursty runs
    at 2.5x for a quarter of each 2 ms period over a 0.5x base, ramp and
    diurnal (4 ms period) span 0.5x to 1.5x. Raises [Invalid_argument]
    on any other name. *)

val schedule : config -> int array
(** Intended arrival times in cycles, nondecreasing, length
    [config.requests]. Instantaneous rates are clamped to ≥ 1 req/s.
    Deterministic: equal configs give equal arrays. *)
