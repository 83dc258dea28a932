(* lib/chaos tests: deterministic schedule planning, and the recovery
   machinery the chaos engine exists to exercise — resumable epochs
   (checkpointed sweep cursor), the quiesce watchdog with epoch abort,
   the graceful-degradation strategy ladder, and the tenant-kill path
   through Os.kill — all with the sanitizer and race detector attached. *)

module Machine = Sim.Machine
module Trace = Sim.Trace
module Cap = Cheri.Capability
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs
module Epoch = Ccr.Epoch
module Sanitizer = Analysis.Sanitizer
module Race = Analysis.Race

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- schedule planning (pure) ---- *)

let test_plan_deterministic () =
  let plan () =
    Chaos.plan ~seed:9 ~strategy:Revoker.Reloaded ~horizon:1_000_000 ()
  in
  let a = plan () and b = plan () in
  check "same seed plans the same schedule" true (a = b);
  check "schedule is non-empty for a sweeping strategy" true
    (a.Chaos.faults <> []);
  List.iter
    (fun f ->
      check "arming point inside the horizon's first half" true
        (f.Chaos.f_at >= 0 && f.Chaos.f_at <= 500_000);
      check "positive injection budget" true (f.Chaos.f_count > 0))
    a.Chaos.faults;
  let c = Chaos.plan ~seed:10 ~strategy:Revoker.Reloaded ~horizon:1_000_000 () in
  check "different seed, different schedule id" true
    (a.Chaos.sched_id <> c.Chaos.sched_id)

let test_plan_applicability () =
  let kinds ~strategy =
    (Chaos.plan ~seed:3 ~strategy ~horizon:500_000 ()).Chaos.faults
    |> List.map (fun f -> f.Chaos.f_kind)
  in
  let paint = kinds ~strategy:Revoker.Paint_sync in
  check "paint+sync never sweeps: only non-sweep faults apply" true
    (List.for_all
       (fun k -> k = Chaos.Quarantine_stall || k = Chaos.Tenant_kill)
       paint);
  check "reloaded sends no per-page shootdowns" true
    (not (List.mem Chaos.Shootdown_ack_loss (kinds ~strategy:Revoker.Reloaded)));
  check "cornucopia can lose shootdown acks" true
    (List.mem Chaos.Shootdown_ack_loss (kinds ~strategy:Revoker.Cornucopia));
  List.iter
    (fun s ->
      List.iter
        (fun k ->
          check "planned kinds are all applicable" true (Chaos.applicable s k))
        (kinds ~strategy:s))
    Revoker.extended_strategies

(* ---- a bare revoker rig (the ccr_check mutation rig, parameterized) ---- *)

let cfg =
  {
    Machine.default_config with
    heap_bytes = 4 lsl 20;
    mem_bytes = 16 lsl 20;
    seed = 11;
  }

type rig = {
  m : Machine.t;
  tr : Trace.t;
  rv : Revoker.t;
  mrs : Mrs.t;
  san : Sanitizer.t;
}

let mk ?(strategy = Revoker.Reloaded) ?recovery ?background_threads () =
  let m = Machine.create cfg in
  let tr = Trace.create ~capacity:65536 () in
  Machine.attach_tracer m (Some tr);
  let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
  let hoards = Kernel.Hoard.create () in
  let rv =
    Revoker.create m ~strategy ~core:2 ~hoards ?recovery ?background_threads ()
  in
  let mrs = Mrs.create m ~alloc ~revoker:rv () in
  let san = Sanitizer.attach ~revoker:rv m in
  { m; tr; rv; mrs; san }

let count_kind tr kind =
  let n = ref 0 in
  Trace.iter tr (fun e -> if e.Trace.kind = kind then incr n);
  !n

(* Page_sweep frames partitioned by the first Epoch_resume event. *)
let sweeps_around_resume tr =
  let pre = ref [] and post = ref [] and resumed = ref false in
  Trace.iter tr (fun e ->
      match e.Trace.kind with
      | Trace.Epoch_resume -> resumed := true
      | Trace.Page_sweep ->
          if !resumed then post := e.Trace.arg :: !post
          else pre := e.Trace.arg :: !pre
      | _ -> ());
  (List.sort_uniq compare !pre, List.sort_uniq compare !post)

(* Sixteen page-sized blocks, each made capability-dirty by a self cap,
   all freed into one batch; the app then idles in [wait_drained] so
   every page visit comes from the revoker's sweep (no self-healing).
   The [crash_at]th page visit on [crash_core] raises: core 2 is the
   revoker thread's, cores 1 and 0 are the §7.1 helpers' when
   [background_threads] is 2 or more. *)
let crash_run ~strategy ?background_threads ?(crash_core = 2) ~crash_at () =
  let r = mk ~strategy ?background_threads () in
  let visits = ref 0 in
  Revoker.set_sweep_hook r.rv
    (Some
       (fun ctx _vp ->
         if Machine.core_id ctx = crash_core then begin
           incr visits;
           if !visits = crash_at then raise Revoker.Induced_crash
         end));
  let clean = ref false in
  ignore
    (Machine.spawn r.m ~name:"app" ~core:3 (fun ctx ->
         let blocks = Array.init 16 (fun _ -> Mrs.malloc r.mrs ctx 4096) in
         Array.iter (fun b -> Machine.store_cap ctx b b) blocks;
         let painted_at = Epoch.counter (Revoker.epoch r.rv) in
         Array.iter (fun b -> Mrs.free r.mrs ctx b) blocks;
         Mrs.flush r.mrs ctx;
         Mrs.wait_drained r.mrs ctx;
         clean := Epoch.is_clean (Revoker.epoch r.rv) ~painted_at;
         Mrs.finish r.mrs ctx));
  Machine.run r.m;
  Sanitizer.finish r.san;
  (r, clean)

let test_reloaded_resume_disjoint () =
  let r, clean = crash_run ~strategy:Revoker.Reloaded ~crash_at:6 () in
  let rs = Revoker.recovery_stats r.rv in
  check_int "exactly one crash retry" 1 rs.Revoker.sweep_crash_retries;
  check_int "no epoch abort: the crash was resumable" 0 rs.Revoker.epoch_aborts;
  check_int "one Epoch_resume event" 1 (count_kind r.tr Trace.Epoch_resume);
  let pre, post = sweeps_around_resume r.tr in
  check_int "five pages swept before the crash (the 6th visit died)" 5
    (List.length pre);
  check "the resumed pass swept the remaining pages" true (post <> []);
  check "resume re-visits ONLY unvisited pages (checkpoint held)" true
    (List.for_all (fun f -> not (List.mem f pre)) post);
  check "quarantine drained to a clean epoch" true !clean;
  check "sanitizer clean across the crash" true (Sanitizer.ok r.san)

let test_reloaded_helper_crash_resumes () =
  (* the same crash in a helper's share: the helper records it, the
     coordinator drains every share, and the resumed pass re-dispatches
     only the pages no share finished *)
  let r, clean =
    crash_run ~strategy:Revoker.Reloaded ~background_threads:3 ~crash_core:1
      ~crash_at:3 ()
  in
  let rs = Revoker.recovery_stats r.rv in
  check_int "exactly one crash retry" 1 rs.Revoker.sweep_crash_retries;
  check_int "no epoch abort: the crash was resumable" 0 rs.Revoker.epoch_aborts;
  check_int "one Epoch_resume event" 1 (count_kind r.tr Trace.Epoch_resume);
  let pre, post = sweeps_around_resume r.tr in
  check_int "pages swept before the resume" 13 (List.length pre);
  check_int "pages swept after it" 3 (List.length post);
  check "resume re-visits ONLY unvisited pages (checkpoint held)" true
    (List.for_all (fun f -> not (List.mem f pre)) post);
  check "quarantine drained to a clean epoch" true !clean;
  check "sanitizer clean across the crash" true (Sanitizer.ok r.san)

let test_cherivoke_restart_overlaps () =
  (* contrast: Cherivoke's stop-the-world sweep has no mid-pass
     checkpoint — a crash resets the cursor and the retry re-sweeps
     pages the dead pass already covered *)
  let r, clean = crash_run ~strategy:Revoker.Cherivoke ~crash_at:6 () in
  let rs = Revoker.recovery_stats r.rv in
  check "crash was retried" true (rs.Revoker.sweep_crash_retries >= 1);
  check "resume announced" true (count_kind r.tr Trace.Epoch_resume >= 1);
  let pre, post = sweeps_around_resume r.tr in
  check "restarted pass re-sweeps pages from before the crash" true
    (List.exists (fun f -> List.mem f pre) post);
  check "quarantine still drained to a clean epoch" true !clean;
  check "sanitizer clean across the restart" true (Sanitizer.ok r.san)

(* ---- quiesce watchdog, epoch abort, is_clean across abort ---- *)

let test_watchdog_abort_recover () =
  let recovery =
    {
      Revoker.default_recovery with
      watchdog_timeout = 30_000;
      max_quiesce_retries = 2;
      backoff_base = 1_000;
    }
  in
  let r = mk ~strategy:Revoker.Cherivoke ~recovery () in
  (* every syscall entered from here on declares an absurd drain, so any
     stop-the-world attempted during one must time out and abandon *)
  Machine.set_drain_hook r.m (Some (fun _ctx _drain -> 1_000_000_000));
  let painted_at = ref 0 in
  let mid_unclean = ref false in
  ignore
    (Trace.subscribe r.tr (fun e ->
         if e.Trace.kind = Trace.Epoch_abort then begin
           check "abort retracts to an even counter" true (e.Trace.arg mod 2 = 0);
           if not (Epoch.is_clean (Revoker.epoch r.rv) ~painted_at:!painted_at)
           then mid_unclean := true
         end));
  let clean = ref false in
  ignore
    (Machine.spawn r.m ~name:"app" ~core:3 (fun ctx ->
         let b = Mrs.malloc r.mrs ctx 4096 in
         Machine.store_cap ctx b b;
         painted_at := Epoch.counter (Revoker.epoch r.rv);
         Mrs.free r.mrs ctx b;
         Mrs.flush r.mrs ctx;
         (* one long syscall: the revoker's quiesce attempts land inside
            it, and each one trips the watchdog *)
         Kernel.Syscall.perform_service ctx ~service:200_000;
         Machine.set_drain_hook r.m None;
         Mrs.wait_drained r.mrs ctx;
         clean := Epoch.is_clean (Revoker.epoch r.rv) ~painted_at:!painted_at;
         Mrs.finish r.mrs ctx));
  Machine.run r.m;
  Sanitizer.finish r.san;
  let rs = Revoker.recovery_stats r.rv in
  check "watchdog fired repeatedly" true (rs.Revoker.quiesce_timeouts >= 2);
  check "quiesce retry budget exhausted into an epoch abort" true
    (rs.Revoker.epoch_aborts >= 1);
  check "abandoned stop-the-worlds announced" true
    (count_kind r.tr Trace.Stw_abandon >= 2);
  check "epoch abort announced" true (count_kind r.tr Trace.Epoch_abort >= 1);
  check "exponential backoff was charged" true (rs.Revoker.backoff_cycles > 0);
  check "is_clean is FALSE while the epoch stands aborted" true !mid_unclean;
  check "the retried epoch eventually completed: is_clean holds" true !clean;
  check "sanitizer clean across abort and retry" true (Sanitizer.ok r.san)

(* ---- graceful degradation ladder ---- *)

let test_downshift_ladder () =
  let recovery =
    {
      Revoker.default_recovery with
      max_crash_retries = 0;
      max_epoch_aborts = 1;
      backoff_base = 1_000;
    }
  in
  let r = mk ~strategy:Revoker.Reloaded ~recovery () in
  let consults = ref 0 in
  Revoker.set_sweep_hook r.rv
    (Some
       (fun ctx _vp ->
         if Machine.core_id ctx = 2 then begin
           incr consults;
           (* first two passes die on their first page; with a zero
              crash-retry budget each death aborts its epoch, and each
              abort downshifts one rung *)
           if !consults <= 2 then raise Revoker.Induced_crash
         end));
  let clean = ref false in
  ignore
    (Machine.spawn r.m ~name:"app" ~core:3 (fun ctx ->
         let blocks = Array.init 8 (fun _ -> Mrs.malloc r.mrs ctx 4096) in
         Array.iter (fun b -> Machine.store_cap ctx b b) blocks;
         let painted_at = Epoch.counter (Revoker.epoch r.rv) in
         Array.iter (fun b -> Mrs.free r.mrs ctx b) blocks;
         Mrs.flush r.mrs ctx;
         Mrs.wait_drained r.mrs ctx;
         clean := Epoch.is_clean (Revoker.epoch r.rv) ~painted_at;
         Mrs.finish r.mrs ctx));
  Machine.run r.m;
  Sanitizer.finish r.san;
  let rs = Revoker.recovery_stats r.rv in
  check "two epochs aborted" true (rs.Revoker.epoch_aborts >= 2);
  check_int "two rungs descended" 2 rs.Revoker.downshifts;
  check "settled on the Cherivoke floor" true
    (Revoker.strategy r.rv = Revoker.Cherivoke);
  let shifts = ref [] in
  Trace.iter r.tr (fun e ->
      if e.Trace.kind = Trace.Strategy_downshift then
        shifts := (e.Trace.arg, e.Trace.arg2) :: !shifts);
  check "ladder order: reloaded -> cornucopia -> cherivoke" true
    (List.rev !shifts
    = [
        (Revoker.strategy_code Revoker.Reloaded,
         Revoker.strategy_code Revoker.Cornucopia);
        (Revoker.strategy_code Revoker.Cornucopia,
         Revoker.strategy_code Revoker.Cherivoke);
      ]);
  check "the floor strategy finished the job" true !clean;
  check "sanitizer clean across both downshifts" true (Sanitizer.ok r.san)

(* ---- tenant kill through the OS layer ---- *)

let test_tenant_kill_recovers () =
  let config = { cfg with mem_bytes = 48 lsl 20 } in
  let os = Os.create ~config (Runtime.Safe Revoker.Reloaded) in
  let m = Os.machine os in
  let tr = Trace.create ~capacity:262144 () in
  Machine.attach_tracer m (Some tr);
  let san =
    Sanitizer.attach ?revoker:(Os.runtime (Os.init os)).Runtime.revoker m
  in
  Os.set_on_process os (fun p ->
      Sanitizer.register_process san ~pid:(Os.pid p)
        ?revoker:(Os.runtime p).Runtime.revoker ());
  let race = Race.attach m in
  Os.spawn_reaper os;
  let killed = ref 0 in
  let victim = ref None in
  ignore
    (Machine.spawn m ~name:"init" ~core:0 (fun ctx ->
         let p =
           Os.fork os ctx ~parent:(Os.init os) ~name:"victim" ~core:1
             (fun cctx proc ->
               (* churn forever with live quarantine: only the kill ends
                  this process *)
               let rt = Os.runtime proc in
               let rec forever () =
                 let c = Runtime.malloc rt cctx 256 in
                 Machine.store_cap cctx c c;
                 Runtime.free rt cctx c;
                 forever ()
               in
               forever ())
         in
         victim := Some p;
         Machine.sleep ctx 300_000;
         killed := Os.kill os ctx p;
         Os.wait_children os ctx;
         Os.shutdown os ctx));
  Machine.run m;
  Sanitizer.finish san;
  check "kill tore down at least the victim's user thread" true (!killed >= 1);
  check "victim was reaped" true
    (match !victim with Some p -> Os.proc_state p = Os.Reaped | None -> false);
  check "Proc_kill announced with the flushed quarantine" true
    (count_kind tr Trace.Proc_kill = 1);
  check "sanitizer clean across the kill" true (Sanitizer.ok san);
  check "no races: the kill is a synchronization edge" true (Race.ok race)

(* ---- Mrs.finish abandonment is loud ---- *)

let test_abandonment_traced () =
  let r = mk ~strategy:Revoker.Reloaded () in
  ignore
    (Machine.spawn r.m ~name:"app" ~core:3 (fun ctx ->
         let c = Mrs.malloc r.mrs ctx 4096 in
         Machine.store_u64 ctx c 1L;
         (* 4 KiB is far below the 128 KiB policy minimum: no epoch will
            ever trigger, so finish must abandon it *)
         Mrs.free r.mrs ctx c;
         Mrs.finish r.mrs ctx));
  Machine.run r.m;
  Sanitizer.finish r.san;
  check_int "one abandonment event" 1
    (count_kind r.tr Trace.Quarantine_abandoned);
  let bytes = ref 0 in
  Trace.iter r.tr (fun e ->
      if e.Trace.kind = Trace.Quarantine_abandoned then bytes := e.Trace.arg);
  check_int "event carries the dropped byte count" (Mrs.abandoned_bytes r.mrs)
    !bytes;
  check "stats agree with the accessor" true
    ((Mrs.stats r.mrs).Mrs.abandoned_bytes = !bytes && !bytes >= 4096);
  check "sanitizer tolerates announced abandonment" true (Sanitizer.ok r.san)

(* Batches handed to the revoker before [finish] are still revoked and
   released by its shutdown drain; only the fill buffer is abandoned. So
   each freed byte is reused or abandoned, exactly once, on a run that
   finishes with an epoch in flight and more frees buffered behind it. *)
let test_abandonment_conserves () =
  let r = mk ~strategy:Revoker.Reloaded () in
  let reused = ref 0 and reused_after = ref 0 and abandoned = ref false in
  ignore
    (Trace.subscribe r.tr (fun e ->
         match e.Trace.kind with
         | Trace.Reuse ->
             reused := !reused + e.Trace.arg2;
             if !abandoned then reused_after := !reused_after + e.Trace.arg2
         | Trace.Quarantine_abandoned -> abandoned := true
         | _ -> ()));
  let mid_epoch = ref false in
  ignore
    (Machine.spawn r.m ~name:"app" ~core:3 (fun ctx ->
         let blocks = Array.init 48 (fun _ -> Mrs.malloc r.mrs ctx 4096) in
         (* 160 KiB, over the 128 KiB policy minimum: one batch *)
         for i = 0 to 39 do
           Mrs.free r.mrs ctx blocks.(i)
         done;
         Mrs.flush r.mrs ctx;
         let tries = ref 0 in
         while (not (Revoker.in_flight r.rv)) && !tries < 200 do
           incr tries;
           Machine.sleep ctx 1_000
         done;
         for i = 40 to 47 do
           Mrs.free r.mrs ctx blocks.(i)
         done;
         mid_epoch := Revoker.in_flight r.rv;
         Mrs.finish r.mrs ctx));
  Machine.run r.m;
  Sanitizer.finish r.san;
  let st = Mrs.stats r.mrs in
  check "finished with an epoch in flight" true !mid_epoch;
  check_int "the fill buffer is what was abandoned" (8 * 4096) st.Mrs.abandoned_bytes;
  check_int "the in-flight batch was released after finish" (40 * 4096) !reused_after;
  check_int "reused + abandoned = freed" st.Mrs.sum_freed_bytes
    (!reused + st.Mrs.abandoned_bytes);
  check "sanitizer tolerates announced abandonment" true (Sanitizer.ok r.san)

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic schedules" `Quick
            test_plan_deterministic;
          Alcotest.test_case "strategy applicability" `Quick
            test_plan_applicability;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reloaded resume is disjoint" `Quick
            test_reloaded_resume_disjoint;
          Alcotest.test_case "reloaded helper crash resumes" `Quick
            test_reloaded_helper_crash_resumes;
          Alcotest.test_case "cherivoke restart overlaps" `Quick
            test_cherivoke_restart_overlaps;
          Alcotest.test_case "watchdog abort and retry" `Quick
            test_watchdog_abort_recover;
          Alcotest.test_case "downshift ladder" `Quick test_downshift_ladder;
          Alcotest.test_case "tenant kill" `Quick test_tenant_kill_recovers;
          Alcotest.test_case "abandonment is traced" `Quick
            test_abandonment_traced;
          Alcotest.test_case "abandonment conserves freed bytes" `Quick
            test_abandonment_conserves;
        ] );
    ]
