(* One benchmark run: set-up timing, a warm-up cell, then passes over the
   workload's cells until the time budget is spent, and the metrics
   they yield. *)

module Result = Workload.Result
module Serve = Workload.Serve
module Tecon = Workload.Tenantecon

type metric = { name : string; value : float; unit_ : string; q1 : float; q3 : float; n : int }

let exact name unit_ value = { name; value; unit_; q1 = value; q3 = value; n = 1 }

let summarized name unit_ xs =
  let q1, value, q3 = Stat.quartiles xs in
  { name; value; unit_; q1; q3; n = List.length xs }

type report = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  passes : int;
  end_to_end : metric list;
  per_layer : metric list; (* traced runs only *)
  raw : metric list; (* the measurements [host_s] is derived from *)
  failures : string list;
}

(* What the run reports: per-layer metrics when traced, else end-to-end. *)
let reported r = if r.traced then r.per_layer else r.end_to_end

(* ---- host measurements ---- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* One set-up repetition: the CPU seconds of every cell's set-up calls,
   rescaled by the yardstick run just before and just after them (see
   {!pass}), and the compile part of them, in raw CPU seconds. Each
   throwaway machine is collected before the next is built, untimed, so
   that set-up never holds more machines in memory than a pass does. *)
let time_setup cells =
  Gc.full_major ();
  let yard = Yardstick.time () in
  let total, compile =
    List.fold_left
      (fun (total, compile) c ->
        let t0 = Clock.cpu_s () in
        let comp = c.Cells.setup () in
        let dt = Clock.cpu_s () -. t0 in
        Gc.full_major ();
        (total +. dt, compile +. comp))
      (0.0, 0.0) cells
  in
  let yard = (yard +. Yardstick.time ()) /. 2.0 in
  (total *. Yardstick.reference_s /. yard, compile)

(* ---- simulated metrics ---- *)

let us_of_cycles c = float_of_int c /. Sim.Cost.clock_hz *. 1e6
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let per num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let pct num den = 100.0 *. per num den
let percentile_or_0 xs p = if xs = [] then 0.0 else Stats.Summary.percentile xs p

let spec_results obs =
  List.filter_map (fun o -> match o.Cells.sim with Some (Cells.Spec r) -> Some r | _ -> None) obs

let serve_points obs =
  List.filter_map
    (fun o ->
      match o.Cells.sim with
      | Some (Cells.Serve { rate; governed; o }) -> Some (rate, governed, o)
      | _ -> None)
    obs

let tenant_results obs =
  List.filter_map
    (fun o ->
      match o.Cells.sim with
      | Some (Cells.Tenant { r; phases; mrs }) -> Some (r, phases, mrs)
      | _ -> None)
    obs

(* Per-epoch phase records of every cell run under [mode]. *)
let phases_of obs mode =
  List.concat_map
    (fun o ->
      match o.Cells.sim with
      | Some (Cells.Spec r) when r.Result.mode = mode -> r.Result.phases
      | Some (Cells.Serve { o; _ }) when o.Serve.result.Result.mode = mode ->
          o.Serve.result.Result.phases
      | Some (Cells.Tenant { r; phases; _ }) when r.Tecon.mode = mode -> phases
      | _ -> [])
    obs

(* Geometric-mean overhead of [mode] against Baseline over the SPEC
   profiles run under both, of the statistic [f]. *)
let spec_overhead obs mode f =
  let rs = spec_results obs in
  let ratios =
    List.filter_map
      (fun (r : Result.t) ->
        if r.Result.mode <> mode then None
        else
          List.find_opt
            (fun (b : Result.t) -> b.Result.mode = "baseline" && b.Result.workload = r.Result.workload)
            rs
          |> Option.map (fun b -> float_of_int (f r) /. float_of_int (f b)))
      rs
  in
  if ratios = [] then 0.0 else Stat.geomean_overhead_pct ratios

let spec_ratio obs mode f = if spec_results obs = [] then 0.0 else 1.0 +. (spec_overhead obs mode f /. 100.0)

let revoker_metrics obs mode =
  let ph = phases_of obs mode in
  let open Ccr.Revoker in
  [
    exact ("revoker.epochs." ^ mode) "count" (float_of_int (List.length ph));
    exact ("revoker.pause_p50_us." ^ mode) "us"
      (percentile_or_0 (List.map (fun p -> us_of_cycles p.stw_cycles) ph) 50.0);
    exact ("revoker.concurrent_ms." ^ mode) "ms"
      (us_of_cycles (sum (fun p -> p.concurrent_cycles) ph) /. 1e3);
    exact ("revoker.pages_visited." ^ mode) "count" (float_of_int (sum (fun p -> p.pages_visited) ph));
    exact ("revoker.caps_revoked." ^ mode) "count" (float_of_int (sum (fun p -> p.caps_revoked) ph));
    exact ("revoker.fault_count." ^ mode) "count" (float_of_int (sum (fun p -> p.fault_count) ph));
    exact ("revoker.fault_ms." ^ mode) "ms" (us_of_cycles (sum (fun p -> p.fault_cycles) ph) /. 1e3);
  ]

let serve_latency points ~governed ~rate p =
  match List.find_opt (fun (r, g, _) -> r = rate && g = governed) points with
  | Some (_, _, o) -> percentile_or_0 (Array.to_list o.Serve.result.Result.latencies_us) p
  | None -> 0.0

let serve_metrics obs =
  let points = serve_points obs in
  let shed (o : Serve.outcome) = o.Serve.shed_depth + o.Serve.shed_deadline in
  let govs = List.filter_map (fun (_, _, o) -> o.Serve.governor) points in
  let ladder =
    List.filter_map
      (fun (rate, governed, o) ->
        if governed then
          Some (rate, percentile_or_0 (Array.to_list o.Serve.result.Result.latencies_us) 99.9, shed o)
        else None)
      points
  in
  let outcomes = List.map (fun (_, _, o) -> o) points in
  let open Service.Governor in
  [
    exact "sim.p50_us.90k" "us" (serve_latency points ~governed:true ~rate:90e3 50.0);
    exact "sim.p999_us.90k" "us" (serve_latency points ~governed:true ~rate:90e3 99.9);
    exact "sim.p999_us.110k" "us" (serve_latency points ~governed:true ~rate:110e3 99.9);
    exact "sim.p999_us.cornucopia.110k" "us" (serve_latency points ~governed:false ~rate:110e3 99.9);
    exact "sim.max_qps_at_slo" "qps"
      (if ladder = [] then 0.0 else Stat.max_rate_at_slo ~limit_us:Cells.slo_us ladder);
    exact "governor.deferred" "count" (float_of_int (sum (fun g -> g.epochs_deferred) govs));
    exact "governor.forced" "count" (float_of_int (sum (fun g -> g.epochs_forced) govs));
    exact "service.shed_pct" "%" (pct (sum shed outcomes) (sum (fun o -> o.Serve.offered) outcomes));
  ]

let tenant_metrics obs =
  let ts = tenant_results obs in
  let outcomes = List.concat_map (fun (r, _, _) -> r.Tecon.per_tenant) ts in
  let open Tecon in
  let per_storm f = if ts = [] then 0.0 else Stat.median (List.map f ts) in
  [
    exact "sim.storm_p999_us" "us" (per_storm (fun (r, _, _) -> r.p999_storm_us));
    exact "sim.goodput_rps" "req/s"
      (per_storm (fun (r, _, _) ->
           List.fold_left (fun a o -> if o.o_crashed then a else a +. o.o_goodput) 0.0 r.per_tenant));
    exact "tenant.quota_sheds" "count" (float_of_int (sum (fun o -> o.o_shed_quota) outcomes));
    exact "tenant.denies" "count"
      (float_of_int (sum (fun o -> o.o_denied_quota + o.o_denied_phys) outcomes));
    exact "tenant.reclaims" "count" (float_of_int (sum (fun o -> o.o_reclaims) outcomes));
    exact "tenant.quarantine_peak_kib" "KiB"
      (float_of_int (List.fold_left (fun a (r, _, _) -> max a r.quarantine_peak) 0 ts) /. 1024.0);
    exact "os.grants" "count" (float_of_int (sum (fun o -> o.o_grants) outcomes));
  ]

let mrs_stats obs =
  List.concat_map
    (fun o ->
      match o.Cells.sim with
      | Some (Cells.Spec r) -> Option.to_list r.Result.mrs
      | Some (Cells.Serve { o; _ }) -> Option.to_list o.Serve.result.Result.mrs
      | Some (Cells.Tenant { mrs; _ }) -> mrs
      | None -> [])
    obs

(* Per-epoch stop-the-world time at the highest percentile with ten
   epochs beyond it: p50 at spec_revoke's ~33 epochs per strategy, p90
   from 100. 0 below 20 epochs. *)
let pause_tail obs mode =
  let xs = List.map (fun p -> us_of_cycles p.Ccr.Revoker.stw_cycles) (phases_of obs mode) in
  match Stat.tail_percentile (List.length xs) with Some p -> Stats.Summary.percentile xs p | None -> 0.0

(* Simulated per-layer metrics of one pass; 0 where the workload has no
   such layer. *)
let sim_metrics obs =
  let mrs = mrs_stats obs in
  let app = List.map (fun o -> o.Cells.app_cache) obs in
  let rev = List.map (fun o -> o.Cells.rev_cache) obs in
  let c (f : Cells.cache -> int) xs = sum f xs in
  [
    exact "sim.overhead_pct.reloaded" "%" (spec_overhead obs "reloaded" (fun r -> r.Result.wall_cycles));
    exact "sim.overhead_pct.cornucopia" "%"
      (spec_overhead obs "cornucopia" (fun r -> r.Result.wall_cycles));
    exact "sim.pause_tail_us.reloaded" "us" (pause_tail obs "reloaded");
    exact "sim.pause_tail_us.cornucopia" "us" (pause_tail obs "cornucopia");
    exact "sim.bus_overhead_pct.reloaded" "%" (spec_overhead obs "reloaded" (fun r -> r.Result.bus_total));
  ]
  @ serve_metrics obs @ tenant_metrics obs
  @ revoker_metrics obs "reloaded" @ revoker_metrics obs "cornucopia"
  @ [
      exact "mrs.blocked_allocs" "count" (float_of_int (sum (fun s -> s.Ccr.Mrs.blocked_allocs) mrs));
      exact "mrs.freed_mib" "MiB"
        (float_of_int (sum (fun s -> s.Ccr.Mrs.sum_freed_bytes) mrs) /. float_of_int (1 lsl 20));
      exact "alloc.peak_rss_ratio" "ratio" (spec_ratio obs "reloaded" (fun r -> r.Result.peak_rss_pages));
      exact "cache.app.l1_hit_pct" "%" (pct (c (fun x -> x.l1) app) (c (fun x -> x.accesses) app));
      exact "cache.app.l2_hit_pct" "%"
        (pct (c (fun x -> x.l2) app) (c (fun x -> x.accesses - x.l1) app));
      exact "cache.revoker.l2_hit_pct" "%"
        (pct (c (fun x -> x.l2) rev) (c (fun x -> x.accesses - x.l1) rev));
      exact "bus.app_core_m" "M" (float_of_int (c (fun x -> x.bus) app) /. 1e6);
      exact "bus.revoker_core_m" "M" (float_of_int (c (fun x -> x.bus) rev) /. 1e6);
    ]

(* ---- the run ---- *)

type timing = {
  cpu_s : float; (* CPU seconds of the pass's cells *)
  yard_s : float; (* mean CPU seconds of the yardstick runs around them *)
  norm_s : float; (* [cpu_s] rescaled to the reference host's speed *)
  minor_words : float;
}

type acc = {
  mutable host : timing list; (* untraced passes, newest first *)
  mutable traced_host : float list; (* CPU seconds *)
  mutable probes : Probe.t list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable first : Cells.obs list; (* the first untraced pass *)
  mutable first_traced : Cells.obs list;
}

let note acc msg = acc.failures <- msg :: acc.failures

(* Run every cell once in [mode]; account attempts, failures and gates,
   comparing each cell's simulated outcome with [reference] when given
   (the first untraced pass). Returns the observations and the pass's
   timing.

   Each cell starts on a collected heap: the previous cells' machines
   (up to ~150 MB each) are reclaimed by an untimed full collection, so
   that timings do not depend on how much of that garbage the next cell
   happens to sweep, and peak memory is that of the largest cell. The
   yardstick runs just before and just after each cell. *)
let pass acc cells mode ~what ~reference =
  let dt = ref 0.0 and yard = ref 0.0 and minor = ref 0.0 in
  let obs =
    List.map
      (fun c ->
        Gc.full_major ();
        yard := !yard +. Yardstick.time ();
        let w0 = Gc.minor_words () in
        let t0 = Clock.cpu_s () in
        let o = Cells.run_cell c mode in
        dt := !dt +. (Clock.cpu_s () -. t0);
        minor := !minor +. (Gc.minor_words () -. w0);
        yard := !yard +. Yardstick.time ();
        o)
      cells
  in
  let yard_s = !yard /. float_of_int (2 * List.length cells) in
  let timing =
    {
      cpu_s = !dt;
      yard_s;
      norm_s = !dt *. Yardstick.reference_s /. yard_s;
      minor_words = !minor;
    }
  in
  List.iteri
    (fun i (o : Cells.obs) ->
      let c = List.nth cells i in
      acc.attempted <- acc.attempted + o.Cells.attempted;
      match o.Cells.gate with
      | Some g ->
          acc.failed <- acc.failed + o.Cells.failed;
          note acc (Printf.sprintf "%s, %s: %s" what c.Cells.label g)
      | None -> (
          match reference with
          | Some ref_obs when Cells.fingerprint o <> Cells.fingerprint (List.nth ref_obs i) ->
              acc.failed <- acc.failed + o.Cells.attempted;
              note acc
                (Printf.sprintf "%s, %s: simulated outcome differs from the first pass" what
                   c.Cells.label)
          | _ -> acc.failed <- acc.failed + o.Cells.failed))
    obs;
  (obs, timing)

let measure ?(scale = 1.0) ?(check = false) ?(setup_reps = 5) ~workload ~seed ~seconds ~traced ()
    =
  let cells = Cells.cells ~scale ~seed workload in
  let setups = List.init setup_reps (fun _ -> time_setup cells) in
  ignore (Cells.run_cell (List.hd cells) Cells.Plain);
  let acc =
    {
      host = [];
      traced_host = [];
      probes = [];
      attempted = 0;
      failed = 0;
      failures = [];
      first = [];
      first_traced = [];
    }
  in
  let plain = if check then Cells.Checked else Cells.Plain in
  let t_start = Clock.now_ns () in
  let rec loop k =
    let iteration_start = Clock.now_ns () in
    let reference = if k = 1 then None else Some acc.first in
    let obs, timing = pass acc cells plain ~what:(Printf.sprintf "pass %d" k) ~reference in
    if k = 1 then acc.first <- obs;
    acc.host <- timing :: acc.host;
    if traced then begin
      let pr = Probe.create () in
      let obs, timing =
        pass acc cells (Cells.Traced pr)
          ~what:(Printf.sprintf "traced pass %d" k)
          ~reference:(Some acc.first)
      in
      if k = 1 then acc.first_traced <- obs;
      acc.probes <- pr :: acc.probes;
      acc.traced_host <- timing.cpu_s :: acc.traced_host
    end;
    (* stop when another iteration as long as this one would overrun *)
    if Clock.seconds_since t_start +. Clock.seconds_since iteration_start > seconds then k
    else loop (k + 1)
  in
  let passes = loop 1 in
  let first = acc.first in
  let ops = sum (fun o -> o.Cells.ops) first in
  let host f = List.map f acc.host in
  let end_to_end =
    [
      summarized "host_s" "s" (host (fun t -> t.norm_s));
      summarized "setup_s" "s" (List.map fst setups);
      exact "host_peak_rss_mb" "MB" (peak_rss_mb ());
      exact "sim_wall_cycles_per_op" "cycles/op" (per (sum (fun o -> o.Cells.wall) first) ops);
      exact "sim_cpu_cycles_per_op" "cycles/op" (per (sum (fun o -> o.Cells.cpu) first) ops);
      exact "sim_bus_per_op" "txn/op" (per (sum (fun o -> o.Cells.bus) first) ops);
    ]
  in
  let per_layer =
    if not traced then []
    else
      (* each probe reports the same names in the same order *)
      let probe_metrics = List.map Probe.metrics acc.probes in
      List.mapi
        (fun i (name, _, unit_) ->
          summarized name unit_
            (List.map
               (fun ms ->
                 let _, v, _ = List.nth ms i in
                 v)
               probe_metrics))
        (List.hd probe_metrics)
      @ [
          summarized "workload.compile_s" "s" (List.map snd setups);
          summarized "gc.minor_words_per_op" "words/op"
            (host (fun t -> t.minor_words /. float_of_int (max 1 ops)));
          exact "trace.overhead_pct" "%"
            ((Stat.median acc.traced_host /. Stat.median (host (fun t -> t.cpu_s)) -. 1.0) *. 100.0);
          exact "spec.live_untagged" "count"
            (float_of_int (sum (fun o -> o.Cells.live_untagged) acc.first_traced));
          exact "ops_failed_frac" "ratio" (per acc.failed acc.attempted);
        ]
      @ sim_metrics first
  in
  {
    workload = Cells.workload_name workload;
    seed;
    traced;
    correct = acc.failures = [];
    attempted = acc.attempted;
    failed = acc.failed;
    passes;
    end_to_end;
    per_layer;
    raw =
      [
        summarized "host_cpu_s" "s" (host (fun t -> t.cpu_s));
        summarized "yardstick_s" "s" (host (fun t -> t.yard_s));
      ];
    failures = List.rev acc.failures;
  }

(* ---- output ---- *)

(* The machine-readable last line of a run: value and unit per metric. *)
let result_line r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             (reported r)) );
    ]

(* The full record [--out] keeps and [compare] reads. *)
let record r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.int r.seed);
      ("trace", Json.Bool r.traced);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("passes", Json.int r.passes);
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Num m.value);
                     ("unit", Json.Str m.unit_);
                     ("q1", Json.Num m.q1);
                     ("q3", Json.Num m.q3);
                     ("n", Json.int m.n);
                   ] ))
             (r.end_to_end @ r.per_layer @ r.raw)) );
    ]

let pp_report fmt r =
  Format.fprintf fmt "%s seed=%d %s: %d pass(es), %d/%d ops failed, %s@." r.workload r.seed
    (if r.traced then "traced" else "untraced")
    r.passes r.failed r.attempted
    (if r.correct then "all gates passed" else "GATES FAILED");
  List.iter (fun f -> Format.fprintf fmt "  gate: %s@." f) r.failures;
  List.iter
    (fun m ->
      if m.n > 1 then
        Format.fprintf fmt "  %-34s %14.6g %-9s [q1 %.6g, q3 %.6g, n=%d]@." m.name m.value m.unit_ m.q1
          m.q3 m.n
      else Format.fprintf fmt "  %-34s %14.6g %s@." m.name m.value m.unit_)
    (reported r @ r.raw)
