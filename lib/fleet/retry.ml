(* Client retry policy: how many attempts, spaced how, spent from what
   budget. Backoff delays are a pure hash of (seed, request, attempt) —
   never a draw from a sequential Prng — because the fleet's round loop
   recomputes retry decisions from scratch every round and the set of
   draws (and their order) differs between rounds; a stateful stream
   would make a request's backoff depend on which other requests failed
   first. *)

type policy =
  | No_retry
  | Naive of { max_attempts : int; delay_us : float }
  | Budgeted of {
      max_attempts : int;
      base_us : float;
      cap_us : float;
      ratio : float;
      burst : int;
    }

(* CLI keyword -> policy shape with default parameters; the per-field
   flags override the numbers afterwards. *)
let policy_of_name = function
  | "none" -> Some No_retry
  | "naive" -> Some (Naive { max_attempts = 4; delay_us = 200.0 })
  | "budgeted" ->
      Some
        (Budgeted
           {
             max_attempts = 4;
             base_us = 400.0;
             cap_us = 20_000.0;
             ratio = 0.1;
             burst = 64;
           })
  | _ -> None

let validate = function
  | No_retry -> ()
  | Naive { max_attempts; delay_us } ->
      if max_attempts < 2 || max_attempts > 16 then
        invalid_arg "Retry: max_attempts outside [2, 16]";
      if not (delay_us >= 0.0) then invalid_arg "Retry: negative delay_us"
  | Budgeted { max_attempts; base_us; cap_us; ratio; burst } ->
      if max_attempts < 2 || max_attempts > 16 then
        invalid_arg "Retry: max_attempts outside [2, 16]";
      if not (base_us > 0.0) then invalid_arg "Retry: base_us <= 0";
      if not (cap_us >= base_us) then invalid_arg "Retry: cap_us < base_us";
      if not (ratio >= 0.0 && ratio <= 1.0) then
        invalid_arg "Retry: ratio outside [0, 1]";
      if burst < 1 then invalid_arg "Retry: burst < 1"

let max_attempts = function
  | No_retry -> 1
  | Naive { max_attempts; _ } | Budgeted { max_attempts; _ } -> max_attempts

(* splitmix64 finalizer, as in Balancer — a pure integer mix *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, 1) from (seed, req, attempt) *)
let hash01 ~seed ~req ~attempt =
  let z =
    mix64
      (Int64.add
         (mix64 (Int64.of_int ((seed * 0x9e3779b9) lxor (req * 0x85ebca6b))))
         (Int64.of_int (attempt * 0xc2b2ae35)))
  in
  float_of_int (Int64.to_int (Int64.shift_right_logical z 11))
  /. 9007199254740992.0 (* 2^53 *)

(* Delay before resubmission [attempt] (>= 1; attempt 0 is the original
   send). Naive is a fixed short delay — the retry-storm generator.
   Budgeted is capped exponential backoff with decorrelated jitter: the
   window doubles per attempt and the delay is drawn uniformly from
   [window, 2*window), so synchronized failures decohere. *)
let backoff_us policy ~seed ~req ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff_us: attempt < 1";
  match policy with
  | No_retry -> invalid_arg "Retry.backoff_us: No_retry"
  | Naive { delay_us; _ } -> delay_us
  | Budgeted { base_us; cap_us; _ } ->
      let window = base_us *. (2.0 ** float_of_int (attempt - 1)) in
      let u = hash01 ~seed ~req ~attempt in
      Float.min cap_us (window *. (1.0 +. u))

type hedge = { h_pct : float; h_min_us : float }

let validate_hedge h =
  if not (h.h_pct >= 50.0 && h.h_pct < 100.0) then
    invalid_arg "Retry: hedge percentile outside [50, 100)";
  if not (h.h_min_us >= 0.0) then invalid_arg "Retry: negative hedge floor"

(* ---- per-class retry token buckets ---- *)

type budget = {
  ratio : float;
  burst : float;
  tokens : float array; (* one bucket per request class *)
  mutable denied : int;
}

(* Naive retry deliberately gets an unbounded budget — that is the
   failure mode the budgeted policy exists to prevent. *)
let budget_create policy ~classes =
  match policy with
  | No_retry | Naive _ -> None
  | Budgeted { ratio; burst; _ } ->
      Some
        {
          ratio;
          burst = float_of_int burst;
          tokens = Array.make classes (float_of_int burst);
          denied = 0;
        }

let budget_refill b ~cls =
  match b with
  | None -> ()
  | Some b -> b.tokens.(cls) <- Float.min b.burst (b.tokens.(cls) +. b.ratio)

let budget_take b ~cls =
  match b with
  | None -> true
  | Some b ->
      if b.tokens.(cls) >= 1.0 then begin
        b.tokens.(cls) <- b.tokens.(cls) -. 1.0;
        true
      end
      else begin
        b.denied <- b.denied + 1;
        false
      end

let budget_denied = function None -> 0 | Some b -> b.denied
