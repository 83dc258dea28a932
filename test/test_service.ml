(* Serving-layer tests: load generation, admission control, SLO
   accounting, and the revocation governor's defer/force transitions. *)

module M = Sim.Machine
module Cost = Sim.Cost
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Policy = Ccr.Policy
module Loadgen = Service.Loadgen
module Squeue = Service.Squeue
module Slo = Service.Slo
module Governor = Service.Governor
module Serve = Workload.Serve

let check = Alcotest.(check bool)

let cfg = { M.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }

(* ---- load generation ---- *)

let nondecreasing a =
  let ok = ref true in
  Array.iteri (fun i v -> if i > 0 && v < a.(i - 1) then ok := false) a;
  !ok

let test_loadgen_deterministic () =
  let lcfg =
    { Loadgen.pattern = Loadgen.Poisson 50_000.0; requests = 500; seed = 7 }
  in
  let a = Loadgen.schedule lcfg and b = Loadgen.schedule lcfg in
  check "same config, same schedule" true (a = b);
  Alcotest.(check int) "length" 500 (Array.length a);
  check "arrivals nondecreasing" true (nondecreasing a);
  let c = Loadgen.schedule { lcfg with seed = 8 } in
  check "different seed, different schedule" true (a <> c)

let test_loadgen_patterns () =
  List.iter
    (fun pattern ->
      let a = Loadgen.schedule { Loadgen.pattern; requests = 300; seed = 3 } in
      Alcotest.(check int)
        (Loadgen.pattern_name pattern ^ " length")
        300 (Array.length a);
      check (Loadgen.pattern_name pattern ^ " nondecreasing") true
        (nondecreasing a))
    [
      Loadgen.Poisson 30_000.0;
      Loadgen.Bursty
        { base = 10_000.0; peak = 80_000.0; period_us = 2_000.0; duty = 0.3 };
      Loadgen.Ramp { from_rate = 5_000.0; to_rate = 60_000.0 };
      Loadgen.Diurnal { low = 8_000.0; high = 50_000.0; period_us = 5_000.0 };
    ];
  (* a hotter poisson arrives faster *)
  let slow =
    Loadgen.schedule
      { Loadgen.pattern = Loadgen.Poisson 10_000.0; requests = 400; seed = 5 }
  in
  let fast =
    Loadgen.schedule
      { Loadgen.pattern = Loadgen.Poisson 100_000.0; requests = 400; seed = 5 }
  in
  check "10x rate finishes sooner" true (fast.(399) < slow.(399))

(* ---- bounded queue: both shed paths, each traced ---- *)

let test_squeue_shedding () =
  let m = M.create cfg in
  let tracer = Sim.Trace.create () in
  M.attach_tracer m (Some tracer);
  let sheds = ref [] in
  ignore
    (Sim.Trace.subscribe tracer (fun e ->
         if e.Sim.Trace.kind = Sim.Trace.Req_shed then
           sheds := (e.Sim.Trace.arg, e.Sim.Trace.arg2) :: !sheds));
  let q = Squeue.create m ~max_depth:2 () in
  let served = ref 0 in
  ignore
    (M.spawn m ~name:"producer" ~core:0 (fun ctx ->
         (* three offers with no intervening yield: the third finds the
            queue full and sheds on depth *)
         let offer id =
           Squeue.offer q ctx
             {
               Squeue.id;
               intended = M.now ctx;
               deadline = Some (Cost.cycles_of_us 100.0);
               tenant = 0;
             }
         in
         check "first admitted" true (offer 0);
         check "second admitted" true (offer 1);
         check "third shed on depth" false (offer 2);
         M.sleep ctx (Cost.cycles_of_us 50.0);
         Squeue.close q ctx));
  ignore
    (M.spawn m ~name:"consumer" ~core:1 (fun ctx ->
         (* arrive long after the deadline: both queued requests are
            stale and must be deadline-shed, never returned *)
         M.charge ctx (Cost.cycles_of_us 300.0);
         let rec drain () =
           match Squeue.take q ctx with
           | None -> ()
           | Some _ ->
               incr served;
               drain ()
         in
         drain ()));
  M.run m;
  Alcotest.(check int) "nothing served" 0 !served;
  Alcotest.(check int) "accepted" 2 (Squeue.accepted q);
  Alcotest.(check int) "depth sheds" 1 (Squeue.shed_depth q);
  Alcotest.(check int) "deadline sheds" 2 (Squeue.shed_deadline q);
  let depth_drops = List.filter (fun (_, why) -> why = 0) !sheds in
  let deadline_drops = List.filter (fun (_, why) -> why = 1) !sheds in
  Alcotest.(check int) "each depth drop traced" 1 (List.length depth_drops);
  Alcotest.(check int) "each deadline drop traced" 2 (List.length deadline_drops);
  check "depth drop names the request" true (List.mem (2, 0) depth_drops)

(* ---- per-request deadlines ---- *)

let test_squeue_request_deadlines () =
  (* deadlines are per request, with no queue-wide fallback, so a [None]
     deadline really means "never" *)
  let m = M.create cfg in
  let q = Squeue.create m ~max_depth:8 () in
  let got = ref [] in
  ignore
    (M.spawn m ~name:"driver" ~core:0 (fun ctx ->
         let tight = Some (Cost.cycles_of_us 10.0) in
         check "tight request admitted" true
           (Squeue.offer q ctx
              { Squeue.id = 0; intended = M.now ctx; deadline = tight; tenant = 0 });
         check "exempt request admitted" true
           (Squeue.offer q ctx
              { Squeue.id = 1; intended = M.now ctx; deadline = None; tenant = 0 });
         M.charge ctx (Cost.cycles_of_us 500.0);
         Squeue.close q ctx;
         let rec drain () =
           match Squeue.take q ctx with
           | None -> ()
           | Some r ->
               got := r.Squeue.id :: !got;
               drain ()
         in
         drain ()));
  M.run m;
  Alcotest.(check (list int)) "only the exempt request survives" [ 1 ] !got;
  Alcotest.(check int) "the tight one deadline-shed" 1 (Squeue.shed_deadline q)

(* ---- adaptive trigger ---- *)

let test_policy_adaptive () =
  let p = Policy.default in
  let live = 100 * 1024 * 1024 in
  let tr load = Policy.threshold (Policy.adaptive p ~load) ~live ~quarantine:0 in
  let plain = Policy.threshold p ~live ~quarantine:0 in
  check "eager trigger below plain" true (tr 0.0 < plain);
  check "deferred trigger above plain" true (tr 1.0 > plain);
  check "monotone in load" true (tr 0.0 <= tr 0.5 && tr 0.5 <= tr 1.0);
  Alcotest.(check int) "load clamped below" (tr 0.0) (tr (-3.0));
  Alcotest.(check int) "load clamped above" (tr 1.0) (tr 5.0);
  (* adaptation must never reach the blocking margin *)
  let a = Policy.adaptive p ~load:1.0 in
  check "stays under the block margin" true
    (a.Policy.fraction < p.Policy.block_factor *. p.Policy.fraction)

(* ---- governor transitions ---- *)

(* Build quarantine on an app thread, hand it to the revoker, and watch
   the epoch governor react to a closure-controlled queue depth. *)
let governor_run ~policy ~gconfig ~depth ~after_flush () =
  let rt = Runtime.create ~config:cfg ~policy (Runtime.Safe Revoker.Reloaded) in
  let m = rt.Runtime.machine in
  let g =
    Governor.install ~config:gconfig ~target_p99_us:1_000.0
      ~p99:(fun () -> Some 5_000.0)
      rt
      ~depth:(fun () -> !depth)
      ()
  in
  ignore
    (M.spawn m ~name:"app" ~core:0 (fun ctx ->
         let caps =
           Array.init 32 (fun _ -> Runtime.malloc rt ctx 4_096)
         in
         Array.iter (fun c -> Runtime.free rt ctx c) caps;
         (match rt.Runtime.mrs with
         | Some mrs -> Ccr.Mrs.flush mrs ctx
         | None -> ());
         after_flush ctx;
         (match rt.Runtime.revoker with
         | Some rv ->
             while Revoker.in_flight rv || Revoker.queued_bytes rv > 0 do
               M.sleep ctx 50_000
             done
         | None -> ());
         Runtime.finish rt ctx));
  M.run m;
  (Governor.stats g, Runtime.revoker_records rt)

let test_governor_defers () =
  (* queue deep at flush time, drained shortly after: the epoch must
     wait (>= one poll), then run once the trough arrives *)
  let depth = ref 10 in
  let gconfig =
    { Governor.default_config with defer_quantum = 2_500; max_defer = 2_500_000 }
  in
  (* 32 x 4 KiB of quarantine stays under default's 256 KiB block
     margin, so the only exit from deferral is the queue draining *)
  let policy = Policy.default in
  let stats, records =
    governor_run ~policy ~gconfig ~depth
      ~after_flush:(fun ctx ->
        M.sleep ctx 25_000;
        depth := 0)
      ()
  in
  check "epoch actually ran" true (records <> []);
  check "epoch was deferred" true (stats.Governor.epochs_deferred >= 1);
  check "deferral cost accounted" true (stats.Governor.defer_cycles > 0);
  Alcotest.(check int) "no forced epoch" 0 stats.Governor.epochs_forced

let test_governor_forces () =
  (* queue never drains AND quarantine pressure is over the blocking
     margin: deferral must end immediately via the force path, and with
     the p99 estimate over target an SLO violation is recorded *)
  let depth = ref 10 in
  let gconfig =
    { Governor.default_config with defer_quantum = 2_500; max_defer = 2_500_000 }
  in
  let policy =
    { Policy.fraction = 0.25; min_quarantine = 4_096; block_factor = 0.05 }
  in
  let stats, records =
    governor_run ~policy ~gconfig ~depth ~after_flush:(fun _ -> ()) ()
  in
  check "epoch actually ran" true (records <> []);
  check "epoch was forced" true (stats.Governor.epochs_forced >= 1);
  check "slo violation recorded" true (stats.Governor.slo_events >= 1);
  Alcotest.(check int) "forced, not deferred" 0 stats.Governor.epochs_deferred

(* ---- serving workload: accounting, determinism, STW visibility ---- *)

let serve_outcome ?(governed = false) ?on_runtime ?(qps = 150_000.0)
    ?(queue_depth = 16) ?(requests = 600) mode =
  Serve.run
    ~config:
      {
        Serve.default_config with
        pattern = Loadgen.Poisson qps;
        requests;
        queue_depth;
        session_slots = 2_000;
        seed = 11;
      }
    ?on_runtime ~governed ~mode ()

let test_serve_accounting () =
  (* offered load over capacity against a short queue: plenty of
     shedding, and every request still accounted exactly once *)
  let o = serve_outcome ~governed:true (Runtime.Safe Revoker.Reloaded) in
  Alcotest.(check int) "offered = requests" 600 o.Serve.offered;
  check "some requests shed" true (o.Serve.shed_depth > 0);
  Alcotest.(check int) "served + shed = offered" o.Serve.offered
    (o.Serve.served + o.Serve.shed_depth + o.Serve.shed_deadline);
  Alcotest.(check int) "histogram count = served" o.Serve.served
    (Stats.Histogram.count (Slo.histogram o.Serve.slo));
  check "governor stats present" true (o.Serve.governor <> None)

let test_serve_deterministic () =
  let a = serve_outcome ~governed:true (Runtime.Safe Revoker.Cornucopia) in
  let b = serve_outcome ~governed:true (Runtime.Safe Revoker.Cornucopia) in
  Alcotest.(check int) "served equal" a.Serve.served b.Serve.served;
  Alcotest.(check int) "shed equal"
    (a.Serve.shed_depth + a.Serve.shed_deadline)
    (b.Serve.shed_depth + b.Serve.shed_deadline);
  check "latency arrays identical" true
    (a.Serve.result.Workload.Result.latencies_us
    = b.Serve.result.Workload.Result.latencies_us)

let test_serve_sees_stw_stall () =
  (* Inject a 1 ms stop-the-world stall mid-run on a Baseline machine
     (no revoker: the stall is the only pause). The open-loop generator
     keeps stamping intended arrivals, so served stragglers must report
     the pause as queueing delay: max latency >= the stall length. *)
  let stall_us = 1_000.0 in
  let o =
    serve_outcome ~qps:50_000.0 ~queue_depth:256 ~requests:800
      ~on_runtime:(fun rt ->
        ignore
          (M.spawn rt.Runtime.machine ~name:"stall" ~core:1 ~user:false
             (fun ctx ->
               M.sleep ctx (Cost.cycles_of_us 2_000.0);
               ignore
                 (M.stop_the_world ctx (fun () ->
                      M.charge ctx (Cost.cycles_of_us stall_us))))))
      Runtime.Baseline
  in
  Alcotest.(check int) "served + shed = offered" o.Serve.offered
    (o.Serve.served + o.Serve.shed_depth + o.Serve.shed_deadline);
  let max_lat =
    Array.fold_left max 0.0 o.Serve.result.Workload.Result.latencies_us
  in
  check "stall visible from intended arrival" true (max_lat >= 0.9 *. stall_us)

(* ---- serving parameters: what Serve.run turns away ---- *)

let validate ?(servers = 2) ?(queue_depth = 64) ?deadline_us ?(target_p99_us = 1_000.0) () =
  Serve.validate
    { Serve.default_config with servers; queue_depth; deadline_us; target_p99_us }

let test_params_accepted () =
  check "defaults accepted" true (validate () = Ok ());
  check "a positive deadline accepted" true (validate ~deadline_us:60.0 () = Ok ())

let rejected case () = check "rejected" true (Result.is_error (case ()))

let test_zero_servers_rejected () =
  rejected (validate ~servers:0) ();
  check "Serve.run raises" true
    (match
       Serve.run ~config:{ Serve.default_config with servers = 0 } ~mode:Runtime.Baseline ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---- cross-process SLO scheduling ---- *)

let test_tenant_slo_sched () =
  let tiny =
    {
      (Workload.Profile.find "hmmer_retro") with
      Workload.Profile.ops = 1_200;
      slots = 200;
    }
  in
  let r =
    Workload.Tenant.run ~seed:7 ~tenants:2 ~sched:Os.Revsched.Slo
      ~mode:(Runtime.Safe Revoker.Reloaded) tiny
  in
  check "sched name" true (r.Workload.Tenant.sched = "slo");
  check "all tenants finished" true
    (List.length r.Workload.Tenant.per_tenant = 2);
  check "epochs were granted" true
    (List.exists
       (fun (s : Os.Revsched.stats) -> s.Os.Revsched.grants > 0)
       r.Workload.Tenant.sched_stats)

let () =
  Alcotest.run "service"
    [
      ( "loadgen",
        [
          Alcotest.test_case "deterministic" `Quick test_loadgen_deterministic;
          Alcotest.test_case "patterns" `Quick test_loadgen_patterns;
        ] );
      ( "squeue",
        [
          Alcotest.test_case "shedding" `Quick test_squeue_shedding;
          Alcotest.test_case "per-request deadlines" `Quick test_squeue_request_deadlines;
        ] );
      ( "policy",
        [ Alcotest.test_case "adaptive trigger" `Quick test_policy_adaptive ] );
      ( "governor",
        [
          Alcotest.test_case "defers into trough" `Quick test_governor_defers;
          Alcotest.test_case "forces under pressure" `Quick test_governor_forces;
        ] );
      ( "serve",
        [
          Alcotest.test_case "shed accounting" `Quick test_serve_accounting;
          Alcotest.test_case "deterministic" `Quick test_serve_deterministic;
          Alcotest.test_case "stw stall visible" `Quick test_serve_sees_stw_stall;
        ] );
      ( "params",
        [
          Alcotest.test_case "valid accepted" `Quick test_params_accepted;
          Alcotest.test_case "zero servers rejected" `Quick test_zero_servers_rejected;
          Alcotest.test_case "zero queue depth rejected" `Quick
            (rejected (validate ~queue_depth:0));
          Alcotest.test_case "negative deadline rejected" `Quick
            (rejected (validate ~deadline_us:(-5.0)));
          Alcotest.test_case "negative p99 target rejected" `Quick
            (rejected (validate ~target_p99_us:(-1.0)));
        ] );
      ( "revsched",
        [ Alcotest.test_case "slo policy" `Quick test_tenant_slo_sched ] );
    ]
