module Machine = Sim.Machine
module Prng = Sim.Prng
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs

type kind =
  | Sweep_crash
  | Stuck_quiesce
  | Shootdown_ack_loss
  | Tag_corruption
  | Quarantine_stall
  | Tenant_kill
  | Inflight_loss

let kind_name = function
  | Sweep_crash -> "sweep-crash"
  | Stuck_quiesce -> "stuck-quiesce"
  | Shootdown_ack_loss -> "shootdown-ack-loss"
  | Tag_corruption -> "tag-corruption"
  | Quarantine_stall -> "quarantine-stall"
  | Tenant_kill -> "tenant-kill"
  | Inflight_loss -> "inflight-loss"

let kind_code = function
  | Sweep_crash -> 0
  | Stuck_quiesce -> 1
  | Shootdown_ack_loss -> 2
  | Tag_corruption -> 3
  | Quarantine_stall -> 4
  | Tenant_kill -> 5
  | Inflight_loss -> 6

let all_kinds =
  [
    Sweep_crash;
    Stuck_quiesce;
    Shootdown_ack_loss;
    Tag_corruption;
    Quarantine_stall;
    Tenant_kill;
    Inflight_loss;
  ]

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

(* Which kinds can possibly manifest under a strategy. Paint_sync never
   sweeps and never stops the world, so only the quarantine pipeline and
   process lifetime are attackable; ack loss needs Cornucopia's per-page
   shootdowns (the only default configuration that sends any). *)
let applicable strategy kind =
  match (kind, strategy) with
  | (Quarantine_stall | Tenant_kill | Inflight_loss), _ -> true
  | _, Revoker.Paint_sync -> false
  | Shootdown_ack_loss, Revoker.Cornucopia -> true
  | Shootdown_ack_loss, _ -> false
  | (Sweep_crash | Stuck_quiesce | Tag_corruption), _ -> true

type fault = {
  f_id : int;
  f_kind : kind;
  f_at : int; (* core-clock cycle at which the fault arms *)
  f_param : int; (* magnitude: stall/inflation cycles, or unused *)
  f_count : int; (* injections before the fault disarms *)
}

type schedule = { sched_id : int; horizon : int; faults : fault list }

let schedule_id t = t.sched_id

(* One fault per applicable kind, armed at a seed-chosen point in the
   first part of the run (late arming risks never firing: the workload
   may drain before the trigger is reached). All magnitudes stay inside
   the recovery budgets given to the campaign's revokers, so every
   injection is recoverable by construction; pushing past the budgets is
   the storm rig's job, not the sweep's. *)
let plan ~seed ~strategy ~horizon ?(kinds = all_kinds) () =
  let rng = Prng.create ~seed:(seed * 0x9e3779b9 + 0x5ca1ab1e) in
  let kinds = List.filter (applicable strategy) kinds in
  let faults =
    List.mapi
      (fun i k ->
        let at = (horizon / 20) + Prng.int rng (max 1 (horizon * 2 / 5)) in
        let param, count =
          match k with
          | Sweep_crash -> (0, 1 + Prng.int rng 2)
          | Stuck_quiesce ->
              (* inflate drains well past any campaign watchdog for a
                 window of syscalls *)
              (1_000_000_000, 2 + Prng.int rng 3)
          | Shootdown_ack_loss -> (0, 1 + Prng.int rng 3)
          | Tag_corruption -> (0, 2 + Prng.int rng 6)
          | Quarantine_stall -> (50_000 + Prng.int rng 200_000, 1 + Prng.int rng 2)
          | Tenant_kill -> (0, 1)
          | Inflight_loss -> (0, 1)
        in
        { f_id = i; f_kind = k; f_at = at; f_param = param; f_count = count })
      kinds
  in
  let sched_id =
    List.fold_left
      (fun acc f ->
        ((acc * 31) + (kind_code f.f_kind * 7) + f.f_at + f.f_count)
        land 0x3fffffff)
      (seed land 0xffff) faults
  in
  { sched_id; horizon; faults }

(* ---- the armed engine ---- *)

type armed = {
  fault : fault;
  mutable remaining : int;
  mutable injected : int;
  (* Tag_corruption: physical addresses already upset (one transient
     upset per location, so the machine's re-read makes progress) *)
  corrupted : (int, unit) Hashtbl.t;
}

type t = {
  m : Machine.t;
  schedule : schedule;
  arms : armed list;
}

let emit t ctx (a : armed) =
  a.injected <- a.injected + 1;
  a.remaining <- a.remaining - 1;
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:(Machine.ctx_pid ctx) ~arg2:(kind_code a.fault.f_kind)
    Sim.Trace.Chaos_inject a.fault.f_id

let active a now = now >= a.fault.f_at && a.remaining > 0

let find t k = List.filter (fun a -> a.fault.f_kind = k) t.arms

let install m ~revoker ~mrs ?kill ?drop_inflight schedule =
  let t =
    {
      m;
      schedule;
      arms =
        List.map
          (fun f ->
            {
              fault = f;
              remaining = f.f_count;
              injected = 0;
              corrupted = Hashtbl.create 16;
            })
          schedule.faults;
    }
  in
  let has k = find t k <> [] in
  (* sweep-thread crash mid-page *)
  (match revoker with
  | Some rv when has Sweep_crash ->
      Revoker.set_sweep_hook rv
        (Some
           (fun ctx _vp ->
             match
               List.find_opt (fun a -> active a (Machine.now ctx))
                 (find t Sweep_crash)
             with
             | Some a ->
                 emit t ctx a;
                 raise Revoker.Induced_crash
             | None -> ()))
  | Some _ | None -> ());
  (* stuck quiesce: syscalls entered during the window declare an
     uninterruptible drain longer than any watchdog deadline *)
  if has Stuck_quiesce then
    Machine.set_drain_hook m
      (Some
         (fun ctx drain ->
           match
             List.find_opt (fun a -> active a (Machine.now ctx))
               (find t Stuck_quiesce)
           with
           | Some a ->
               emit t ctx a;
               drain + a.fault.f_param
           | None -> drain));
  (* TLB-shootdown ack loss (the machine retries the idempotent IPI).
     These hooks carry no ctx, so arming is gated on the global clock;
     the machine itself emits the [Shootdown_retry] / [Tag_corruption]
     evidence events. *)
  if has Shootdown_ack_loss then
    Machine.set_shootdown_ack_hook m
      (Some
         (fun ~core:_ ->
           match
             List.find_opt
               (fun a -> active a (Machine.global_time m))
               (find t Shootdown_ack_loss)
           with
           | Some a ->
               a.injected <- a.injected + 1;
               a.remaining <- a.remaining - 1;
               true
           | None -> false));
  (* transient tag-read corruption on the sweep's access path; one upset
     per physical location so the machine's re-read converges *)
  if has Tag_corruption then
    Machine.set_tag_read_hook m
      (Some
         (fun ~pa ->
           match
             List.find_opt
               (fun a ->
                 active a (Machine.global_time m)
                 && not (Hashtbl.mem a.corrupted pa))
               (find t Tag_corruption)
           with
           | Some a ->
               Hashtbl.replace a.corrupted pa ();
               a.injected <- a.injected + 1;
               a.remaining <- a.remaining - 1;
               true
           | None -> false));
  (* quarantine-drain stall: batch releases sleep on the revoker thread *)
  (match mrs with
  | Some shim when has Quarantine_stall ->
      Mrs.set_release_stall shim
        (Some
           (fun ctx ->
             match
               List.find_opt (fun a -> active a (Machine.now ctx))
                 (find t Quarantine_stall)
             with
             | Some a ->
                 emit t ctx a;
                 a.fault.f_param
             | None -> 0))
  | Some _ | None -> ());
  (* tenant kill: a controller thread sleeps to the arming point, then
     invokes the harness's kill closure (typically Os.kill of a victim) *)
  (match kill with
  | Some do_kill when has Tenant_kill ->
      List.iter
        (fun a ->
          ignore
            (Machine.spawn m
               ~name:(Printf.sprintf "chaos-kill-%d" a.fault.f_id)
               ~core:0 ~user:false (fun ctx ->
                 let dt = a.fault.f_at - Machine.now ctx in
                 if dt > 0 then Machine.sleep ctx dt;
                 if do_kill ctx > 0 then emit t ctx a
                 else a.remaining <- 0)))
        (find t Tenant_kill)
  | Some _ | None -> ());
  (* in-flight loss: at the arming cycle a controller thread invokes the
     harness's drop closure (typically Squeue.drain_lost on a crashing
     host's queue) and reports how many admitted requests it destroyed *)
  (match drop_inflight with
  | Some do_drop when has Inflight_loss ->
      List.iter
        (fun a ->
          ignore
            (Machine.spawn m
               ~name:(Printf.sprintf "chaos-inflight-%d" a.fault.f_id)
               ~core:0 ~user:false (fun ctx ->
                 let dt = a.fault.f_at - Machine.now ctx in
                 if dt > 0 then Machine.sleep ctx dt;
                 if do_drop ctx > 0 then emit t ctx a
                 else a.remaining <- 0)))
        (find t Inflight_loss)
  | Some _ | None -> ());
  t

(* ---- branchable fault points (model checking) ----

   Instead of arming cycles drawn from a seed, every potential injection
   site consults a [decide] callback: the model checker answers it from
   the schedule prefix it is exploring, so inject-vs-don't becomes a
   branch point of the search rather than a coin toss. Only the two
   kinds that create the crash/resume protocol paths (Stw_abandon,
   Epoch_abort, Epoch_resume) are branchable — the others perturb cost,
   not control flow. [decide] is consulted only while the injection
   budget lasts, keeping the branching factor finite. *)

let install_branch m ?revoker ?(budget = 1) ?(stuck_drain = 1_000_000_000)
    ~kinds ~decide () =
  let mk_fault i k param =
    { f_id = i; f_kind = k; f_at = 0; f_param = param; f_count = budget }
  in
  let faults =
    List.mapi
      (fun i k ->
        match k with
        | Sweep_crash -> mk_fault i k 0
        | Stuck_quiesce -> mk_fault i k stuck_drain
        | Shootdown_ack_loss | Tag_corruption | Quarantine_stall | Tenant_kill
        | Inflight_loss ->
            invalid_arg
              (Printf.sprintf "Chaos.install_branch: %s is not branchable"
                 (kind_name k)))
      kinds
  in
  let t =
    {
      m;
      schedule = { sched_id = 0; horizon = 0; faults };
      arms =
        List.map
          (fun f ->
            {
              fault = f;
              remaining = f.f_count;
              injected = 0;
              corrupted = Hashtbl.create 1;
            })
          faults;
    }
  in
  (match revoker with
  | Some rv when find t Sweep_crash <> [] ->
      Revoker.set_sweep_hook rv
        (Some
           (fun ctx _vp ->
             match
               List.find_opt (fun a -> a.remaining > 0) (find t Sweep_crash)
             with
             | Some a when decide Sweep_crash ->
                 emit t ctx a;
                 raise Revoker.Induced_crash
             | Some _ | None -> ()))
  | Some _ | None -> ());
  if find t Stuck_quiesce <> [] then
    Machine.set_drain_hook m
      (Some
         (fun ctx drain ->
           match
             List.find_opt (fun a -> a.remaining > 0) (find t Stuck_quiesce)
           with
           | Some a when decide Stuck_quiesce ->
               emit t ctx a;
               drain + a.fault.f_param
           | Some _ | None -> drain));
  t

(* ---- accounting ---- *)

type outcome = { o_kind : kind; o_id : int; o_injected : int; o_spent : bool }

let outcomes t =
  List.map
    (fun a ->
      {
        o_kind = a.fault.f_kind;
        o_id = a.fault.f_id;
        o_injected = a.injected;
        o_spent = a.remaining = 0;
      })
    t.arms

let injected t = List.fold_left (fun acc a -> acc + a.injected) 0 t.arms

let unfired t =
  List.filter_map
    (fun a -> if a.injected = 0 then Some a.fault.f_kind else None)
    t.arms
