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

type cls = Critical | Normal | Background
(** Request priority classes, most to least important. Brownout
    degradation sheds [Background] (then [Normal]) before touching
    [Critical] traffic. *)

val cls_code : cls -> int
(** Stable integer code: 0 critical, 1 normal, 2 background — shedding
    order is highest code first. *)

val cls_of_code : int -> cls
(** Inverse of {!cls_code}; raises [Invalid_argument] on other codes. *)

val cls_name : cls -> string
val all_classes : cls list

val deadline_factor : cls -> float option
(** Per-class stretch applied to a base deadline: [Critical] 1x,
    [Normal] 4x, [Background] [None] (batch traffic never
    deadline-sheds). *)

val class_stream :
  seed:int -> requests:int -> critical:float -> background:float -> cls array
(** One class per request from a splitmix stream independent of
    {!schedule} and {!user_stream}; [critical] and [background] are the
    population fractions (the rest is [Normal]). Deterministic in all
    arguments; raises [Invalid_argument] on a negative count or a mix
    outside [\[0,1\]]. *)

val user_stream : seed:int -> population:int -> requests:int -> int array
(** One user id in [\[0, population)] per request, drawn uniformly from a
    splitmix stream independent of {!schedule}'s — a fleet balancer
    shards on these. Deterministic in all arguments; raises
    [Invalid_argument] if [population < 1] or [requests < 0]. *)
