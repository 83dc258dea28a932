(* Open-loop arrival schedules. The whole schedule is drawn up front from
   a seeded Prng, so it depends only on (pattern, requests, seed) — never
   on how fast the server keeps up. That independence is what makes the
   serving layer open-loop: a stalled server watches its backlog grow
   instead of silently slowing the clients down. *)

open Sim

type pattern =
  | Poisson of float
  | Bursty of { base : float; peak : float; period_us : float; duty : float }
  | Ramp of { from_rate : float; to_rate : float }
  | Diurnal of { low : float; high : float; period_us : float }

type config = { pattern : pattern; requests : int; seed : int }

let pattern_name = function
  | Poisson _ -> "poisson"
  | Bursty _ -> "bursty"
  | Ramp _ -> "ramp"
  | Diurnal _ -> "diurnal"

let pattern_at name ~qps =
  match name with
  | "poisson" -> Poisson qps
  | "bursty" ->
      (* 25% duty at 2.5x over a 0.5x base: mean = qps *)
      Bursty { base = 0.5 *. qps; peak = 2.5 *. qps; period_us = 2_000.0; duty = 0.25 }
  | "ramp" -> Ramp { from_rate = 0.5 *. qps; to_rate = 1.5 *. qps }
  | "diurnal" -> Diurnal { low = 0.5 *. qps; high = 1.5 *. qps; period_us = 4_000.0 }
  | s -> invalid_arg (Printf.sprintf "Loadgen.pattern_at: unknown pattern %S" s)

let pi = 4.0 *. atan 1.0

(* Instantaneous offered rate (req/s). Time-shaped patterns (bursty,
   diurnal) key off the simulated arrival clock; the ramp keys off
   request-index progress so its endpoints are exact regardless of how
   long the run takes. *)
let rate_at pattern ~t_us ~progress =
  match pattern with
  | Poisson r -> r
  | Bursty { base; peak; period_us; duty } ->
      let phase = Float.rem t_us period_us in
      if phase < duty *. period_us then peak else base
  | Ramp { from_rate; to_rate } ->
      from_rate +. (progress *. (to_rate -. from_rate))
  | Diurnal { low; high; period_us } ->
      let phase = Float.rem t_us period_us /. period_us in
      let mid = (low +. high) /. 2.0 and amp = (high -. low) /. 2.0 in
      mid +. (amp *. sin (2.0 *. pi *. phase))

(* Request classes for priority-aware shedding. Lower codes are more
   important: brownout degradation sheds from the highest code down. *)

type cls = Critical | Normal | Background

let cls_code = function Critical -> 0 | Normal -> 1 | Background -> 2
let all_classes = [ Critical; Normal; Background ]

let cls_name = function
  | Critical -> "critical"
  | Normal -> "normal"
  | Background -> "background"

let cls_of_code = function
  | 0 -> Critical
  | 1 -> Normal
  | 2 -> Background
  | c -> invalid_arg (Printf.sprintf "Loadgen.cls_of_code: %d" c)

(* Per-class deadline stretch: interactive traffic has the tightest
   budget; background work tolerates (deadline x factor) queueing, and
   None means it never deadline-sheds at all (batch semantics). *)
let deadline_factor = function
  | Critical -> Some 1.0
  | Normal -> Some 4.0
  | Background -> None

let class_stream ~seed ~requests ~critical ~background =
  if requests < 0 then invalid_arg "Loadgen.class_stream: negative requests";
  if
    critical < 0.0 || background < 0.0
    || critical +. background > 1.0 +. 1e-9
  then invalid_arg "Loadgen.class_stream: bad class mix";
  let rng = Prng.create ~seed:(seed lxor 0x636c_6173 (* "clas" *)) in
  Array.init requests (fun _ ->
      let u = Prng.float rng 1.0 in
      if u < critical then Critical
      else if u < critical +. background then Background
      else Normal)

(* Per-request user identities for sharded (fleet) serving. A separate
   splitmix stream from the arrival schedule's, so adding user sampling
   to an existing trace never perturbs its arrival times. The population
   stands in for the service's whole registered user base (millions);
   each request samples one of them uniformly. *)
let user_stream ~seed ~population ~requests =
  if population < 1 then invalid_arg "Loadgen.user_stream: empty population";
  if requests < 0 then invalid_arg "Loadgen.user_stream: negative requests";
  let rng = Prng.create ~seed:(seed lxor 0x7573_6572 (* "user" *)) in
  Array.init requests (fun _ -> Prng.int rng population)

let schedule cfg =
  if cfg.requests < 0 then
    invalid_arg "Loadgen.schedule: negative request count";
  let rng = Prng.create ~seed:cfg.seed in
  let arr = Array.make (max cfg.requests 1) 0 in
  let t_us = ref 0.0 in
  for i = 0 to cfg.requests - 1 do
    let progress =
      if cfg.requests <= 1 then 0.0
      else float_of_int i /. float_of_int (cfg.requests - 1)
    in
    let rate = Float.max 1.0 (rate_at cfg.pattern ~t_us:!t_us ~progress) in
    let dt = Prng.exponential rng ~mean:(1e6 /. rate) in
    t_us := !t_us +. dt;
    arr.(i) <- Cost.cycles_of_us !t_us
  done;
  Array.sub arr 0 cfg.requests
