(** Client retry policies: attempt caps, backoff, hedging, and per-class
    retry budgets.

    - [No_retry]: one attempt per request, period.
    - [Naive]: up to [max_attempts] attempts separated by a {e fixed}
      short delay, spent from no budget — the classic retry storm: every
      failure immediately becomes more offered load, which is what
      drives a crashed fleet into the metastable trough.
    - [Budgeted]: capped exponential backoff with {e decorrelated
      jitter} (the delay window doubles per attempt and the delay is
      drawn uniformly from [window, 2*window)), spent from a per-class
      token bucket that only refills on {e successes} ([ratio] tokens
      each, capped at [burst]) — under sustained failure the budget runs
      dry and the client stops amplifying load.

    Backoff delays are a {e pure hash} of (seed, request id, attempt
    number), not draws from a sequential generator: the fleet's round
    loop recomputes retry decisions from scratch each round, so a
    request's delay must not depend on which other requests failed
    first. *)

type policy =
  | No_retry
  | Naive of { max_attempts : int; delay_us : float }
  | Budgeted of {
      max_attempts : int;
      base_us : float;  (** first backoff window *)
      cap_us : float;  (** backoff ceiling *)
      ratio : float;  (** budget tokens refunded per success *)
      burst : int;  (** budget bucket capacity (and initial fill) *)
    }

val policy_of_name : string -> policy option
(** Keyword to policy with default parameters (naive: 4 attempts 200 µs
    apart; budgeted: 4 attempts, 400 µs base, 20 ms cap, 0.1 refill,
    burst 64); CLI flags override the numbers afterwards. *)

val validate : policy -> unit
(** Raises [Invalid_argument] on out-of-range parameters
    ([max_attempts] outside [2, 16], non-positive delays, [cap < base],
    [ratio] outside [0, 1], [burst < 1]). *)

val max_attempts : policy -> int
(** Total attempts including the original send; 1 for [No_retry]. *)

val backoff_us : policy -> seed:int -> req:int -> attempt:int -> float
(** Delay between observing attempt [attempt - 1]'s failure and
    resubmitting as attempt [attempt] ([attempt >= 1]; the original send
    is attempt 0). Pure in all arguments. Raises [Invalid_argument] for
    [No_retry] or [attempt < 1]. *)

type hedge = {
  h_pct : float;
      (** spawn the hedge once the primary has been silent longer than
          this percentile of observed latencies *)
  h_min_us : float;  (** floor on the hedge delay *)
}

val validate_hedge : hedge -> unit
(** Raises [Invalid_argument] if [h_pct] is outside [50, 100) or the
    floor is negative. *)

(** {2 Per-class retry budgets}

    One token bucket per request class, drained by retries and refilled
    only by successes — the mechanism that makes [Budgeted] stop
    amplifying load when the fleet is actually down. The fleet's spawn
    fold drives these in deterministic event order. *)

type budget

val budget_create : policy -> classes:int -> budget option
(** [None] for [No_retry] and [Naive] (deliberately unbounded). Buckets
    start full. *)

val budget_refill : budget option -> cls:int -> unit
(** A class-[cls] attempt succeeded: refund [ratio] tokens, capped. *)

val budget_take : budget option -> cls:int -> bool
(** Spend one token to retry a class-[cls] request; [false] (and counted
    in {!budget_denied}) when the bucket is dry. Always [true] for
    [None]. *)

val budget_denied : budget option -> int
(** Retries refused because the bucket was dry. *)
