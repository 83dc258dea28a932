(* ccr_chaos: deterministic fault-injection campaigns over the
   revocation stack.

   For each (seed, strategy) cell the runner first executes a churn rig
   with no faults to calibrate a horizon, plans a Chaos schedule from the
   seed, and re-runs the identical rig with the schedule armed and the
   shadow-state sanitizer plus the happens-before race detector attached.
   A cell passes only if every planned fault actually fired, at least one
   revocation epoch ran, the run terminated, and both checkers are clean
   — i.e. no quarantined block was reused before a clean epoch even while
   sweeps crashed, quiesces stuck, acks dropped, tags flipped and drains
   stalled.

   Every fourth seed additionally runs a multi-process rig in which a
   chaos controller kills a tenant at an arbitrary epoch phase (Os.kill);
   the reaper must still drain the victim's quarantine through the full
   protocol.

   The storm rig (unless --skip-storm) overloads a Reloaded run past its
   recovery budgets — a CLG fault storm and a burst of sweep crashes —
   and requires the graceful-degradation ladder to walk
   Reloaded -> Cornucopia -> Cherivoke while the run still terminates
   with clean checkers.

   Exits nonzero on any cell failure.

     dune exec bin/ccr_chaos.exe -- --seeds 20
     dune exec bin/ccr_chaos.exe -- --seeds 3 --ops 1500 --json chaos.json
     dune exec bin/ccr_chaos.exe -- --strategies reloaded --kinds sweep-crash *)

open Cmdliner
module Machine = Sim.Machine
module Trace = Sim.Trace
module Prng = Sim.Prng
module Cap = Cheri.Capability
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs
module Policy = Ccr.Policy
module Syscall = Kernel.Syscall
module Check = Analysis.Check

let config seed =
  {
    Machine.default_config with
    heap_bytes = 4 lsl 20;
    mem_bytes = 16 lsl 20;
    seed;
  }

(* Small quarantine minimum so short runs close many epochs. *)
let policy = Policy.with_min Policy.default 16_384

(* Campaign knobs: the watchdog sits just above light_profile's drain cap
   (so fault-free syscalls can never trip it), retries are short so
   injected faults resolve quickly, and the storm trigger stays off. *)
let campaign_recovery =
  {
    Revoker.default_recovery with
    watchdog_timeout = 600_000;
    max_quiesce_retries = 2;
    backoff_base = 5_000;
  }

(* ---- the churn rig ---- *)

(* Malloc/free churn over a 64-slot working set, with aliases written
   through a capability table, a spine of live page-sized blocks whose
   capability reloads exercise the load barrier on many distinct pages,
   and periodic light syscalls for quiesce-drain coverage. *)
let churn ?(finish = true) rt ~seed ~ops ~spine ctx =
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  let regs = Machine.regs (Machine.self ctx) in
  let table = Runtime.malloc rt ctx 4096 in
  Sim.Regfile.set regs 0 table;
  let slot i = Cap.set_addr table (Cap.base table + (i * 16)) in
  let spine_caps = Array.init spine (fun _ -> Runtime.malloc rt ctx 4096) in
  Array.iter (fun c -> Machine.store_cap ctx c c) spine_caps;
  let slots = Array.make 64 None in
  for i = 0 to ops - 1 do
    let j = Prng.int rng 64 in
    (match slots.(j) with
    | Some c ->
        ignore (Machine.load_u64 ctx c);
        Runtime.free rt ctx c;
        slots.(j) <- None
    | None ->
        let c = Runtime.malloc rt ctx (48 + (16 * Prng.int rng 61)) in
        Machine.store_u64 ctx c (Int64.of_int i);
        Machine.store_cap ctx (slot (j land 31)) c;
        slots.(j) <- Some c);
    if i land 7 = 0 then
      Array.iter (fun c -> ignore (Machine.load_cap ctx c)) spine_caps;
    if i land 31 = 0 then Syscall.perform ~profile:Syscall.light_profile ctx
  done;
  Array.iter
    (function Some c -> Runtime.free rt ctx c | None -> ())
    slots;
  if finish then Runtime.finish rt ctx

(* ---- per-cell results ---- *)

type cell = {
  c_rig : string;
  c_seed : int;
  c_strategy : string; (* requested *)
  c_final : string; (* after any downshifts *)
  c_sched : int;
  c_horizon : int;
  c_injected : (string * int) list; (* kind name -> injections *)
  c_unfired : string list;
  c_epochs : int;
  c_cycles : int;
  c_rs : Revoker.recovery_stats;
  c_throttled : int;
  c_abandoned : int;
  c_ok : bool;
  c_note : string;
  c_report : string; (* buffered checker findings; printed by the caller *)
}

let zero_rs =
  {
    Revoker.epoch_aborts = 0;
    sweep_crash_retries = 0;
    epoch_resumes = 0;
    quiesce_timeouts = 0;
    backoff_cycles = 0;
    downshifts = 0;
  }

(* One churn execution; [schedule = None] is the calibration pass. *)
let churn_exec ~seed ~ops ~spine ~recovery ~strategy schedule =
  let rt =
    Runtime.create ~config:(config seed) ~policy ~recovery
      (Runtime.Safe strategy)
  in
  let m = rt.Runtime.machine in
  Machine.attach_tracer m (Some (Trace.create ~capacity:262144 ()));
  let check = Check.attach_runtime rt in
  let chaos =
    Option.map
      (fun s ->
        Chaos.install m ~revoker:rt.Runtime.revoker ~mrs:rt.Runtime.mrs s)
      schedule
  in
  ignore
    (Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
         churn rt ~seed ~ops ~spine ctx));
  let crashed =
    match Machine.run m with () -> None | exception e -> Some e
  in
  (rt, check, chaos, Machine.global_time m, crashed)

(* Cells run on worker domains under --jobs, so checker findings are
   buffered into the cell and printed by the main domain in campaign
   order. *)
let cell_of_run ?epochs ~rig ~seed ~strategy ~sched ~horizon ~requested rt
    check chaos cycles crashed =
  let stats = Runtime.mrs_stats rt in
  let epochs =
    match epochs with
    | Some n -> n
    | None -> (
        match stats with Some s -> s.Mrs.revocations | None -> 0)
  in
  let rs, final =
    match rt.Runtime.revoker with
    | Some rv -> (Revoker.recovery_stats rv, Revoker.strategy rv)
    | None -> (zero_rs, requested)
  in
  let injected =
    match chaos with
    | None -> []
    | Some t ->
        List.map
          (fun o -> (Chaos.kind_name o.Chaos.o_kind, o.Chaos.o_injected))
          (Chaos.outcomes t)
  in
  let unfired =
    match chaos with
    | None -> []
    | Some t -> List.map Chaos.kind_name (Chaos.unfired t)
  in
  let checkers, report = Check.verdict (Some check) ~drift:[] in
  let ok =
    crashed = None && checkers && unfired = [] && epochs > 0
  in
  let note =
    match crashed with
    | Some e -> Printexc.to_string e
    | None ->
        if not checkers then "checker findings"
        else if unfired <> [] then "unfired fault(s)"
        else if epochs = 0 then "vacuous: no epoch ran"
        else ""
  in
  {
    c_rig = rig;
    c_seed = seed;
    c_strategy = Revoker.strategy_name strategy;
    c_final = Revoker.strategy_name final;
    c_sched = sched;
    c_horizon = horizon;
    c_injected = injected;
    c_unfired = unfired;
    c_epochs = epochs;
    c_cycles = cycles;
    c_rs = rs;
    c_throttled =
      (match stats with Some s -> s.Mrs.throttled_allocs | None -> 0);
    c_abandoned =
      (match stats with Some s -> s.Mrs.abandoned_bytes | None -> 0);
    c_ok = ok;
    c_note = note;
    c_report = report;
  }

(* Calibrate, plan, inject. Returns None when no requested fault kind is
   applicable to the strategy (e.g. paint+sync with only sweep faults
   requested): there is nothing to inject, so no cell. *)
let churn_cell ~seed ~ops ~kinds strategy =
  let _, _, _, horizon, crashed =
    churn_exec ~seed ~ops ~spine:16 ~recovery:campaign_recovery ~strategy None
  in
  (match crashed with
  | Some e ->
      failwith
        (Printf.sprintf "calibration run died (%s seed %d): %s"
           (Revoker.strategy_name strategy)
           seed (Printexc.to_string e))
  | None -> ());
  let schedule = Chaos.plan ~seed ~strategy ~horizon ~kinds () in
  if schedule.Chaos.faults = [] then None
  else
    let rt, check, chaos, cycles, crashed =
      churn_exec ~seed ~ops ~spine:16 ~recovery:campaign_recovery ~strategy
        (Some schedule)
    in
    Some
      (cell_of_run ~rig:"churn" ~seed ~strategy
         ~sched:(Chaos.schedule_id schedule) ~horizon ~requested:strategy rt
         check chaos cycles crashed)

(* ---- the tenant-kill rig ---- *)

(* Two forked tenants churn in their own address spaces; a chaos
   controller kills tenant-a at a fixed cycle regardless of what phase
   its revoker is in. The victim churns forever — only the kill ends it —
   so the fault always fires; the reaper must then drain its quarantine
   through the full epoch protocol. *)
let tenant_kill_cell ~seed ~ops strategy =
  let kill_at = 2_000_000 in
  let schedule =
    {
      Chaos.sched_id = (seed * 31) land 0x3fffffff;
      horizon = kill_at * 4;
      faults =
        [
          {
            Chaos.f_id = 0;
            f_kind = Chaos.Tenant_kill;
            f_at = kill_at;
            f_param = 0;
            f_count = 1;
          };
        ];
    }
  in
  let os =
    Os.create ~config:(config seed) ~policy ~recovery:campaign_recovery
      (Runtime.Safe strategy)
  in
  let m = Os.machine os in
  Machine.attach_tracer m (Some (Trace.create ~capacity:262144 ()));
  let init_rt = Os.runtime (Os.init os) in
  let check = Check.attach_os os in
  Os.spawn_reaper os;
  let victim = ref None in
  let chaos =
    Chaos.install m ~revoker:init_rt.Runtime.revoker ~mrs:init_rt.Runtime.mrs
      ~kill:(fun ctx ->
        match !victim with
        | Some p when Os.proc_state p = Os.Running -> Os.kill os ctx p
        | _ -> 0)
      schedule
  in
  ignore
    (Machine.spawn m ~name:"init" ~core:0 (fun ctx ->
         victim :=
           Some
             (Os.fork os ctx ~parent:(Os.init os) ~name:"tenant-a" ~core:1
                (fun cctx proc ->
                  (* immortal: churn until killed *)
                  let rec forever round =
                    churn ~finish:false (Os.runtime proc)
                      ~seed:((seed * 3) + round)
                      ~ops:512 ~spine:4 cctx;
                    forever (round + 1)
                  in
                  forever 1));
         ignore
           (Os.fork os ctx ~parent:(Os.init os) ~name:"tenant-b" ~core:3
              (fun cctx proc ->
                churn ~finish:false (Os.runtime proc) ~seed:((seed * 3) + 2)
                  ~ops cctx ~spine:4;
                Os.exit os cctx proc));
         Os.wait_children os ctx;
         Os.shutdown os ctx));
  let crashed =
    match Machine.run m with () -> None | exception e -> Some e
  in
  (* epochs close in the tenants' own revokers, not init's *)
  let epochs =
    List.fold_left
      (fun acc p ->
        match Runtime.mrs_stats (Os.runtime p) with
        | Some s -> acc + s.Mrs.revocations
        | None -> acc)
      0 (Os.procs os)
  in
  let cell =
    cell_of_run ~epochs ~rig:"tenant-kill" ~seed ~strategy
      ~sched:(Chaos.schedule_id schedule) ~horizon:schedule.Chaos.horizon
      ~requested:strategy init_rt check (Some chaos)
      (Machine.global_time m) crashed
  in
  (* the victim must really have died mid-flight and been reaped *)
  let killed_ok =
    match !victim with Some p -> Os.proc_state p = Os.Reaped | None -> false
  in
  if killed_ok then cell
  else { cell with c_ok = false; c_note = "victim not killed and reaped" }

(* ---- the storm rig ---- *)

(* Push a Reloaded run past every budget: a 64-page capability spine
   generates a CLG fault storm (threshold 20), and a burst of 12 sweep
   crashes with max_crash_retries = 2 / max_epoch_aborts = 2 forces two
   strategy downshifts whichever trigger fires first. The run must end
   on Cherivoke with clean checkers. *)
let storm_recovery =
  {
    campaign_recovery with
    clg_storm_threshold = 20;
    max_crash_retries = 2;
    max_epoch_aborts = 2;
  }

let storm_cell ~seed =
  let strategy = Revoker.Reloaded in
  let _, _, _, horizon, _ =
    churn_exec ~seed ~ops:3_000 ~spine:64 ~recovery:storm_recovery ~strategy
      None
  in
  let schedule =
    {
      Chaos.sched_id = 0x5702; (* storm: not seed-planned *)
      horizon;
      faults =
        [
          {
            Chaos.f_id = 0;
            f_kind = Chaos.Sweep_crash;
            f_at = horizon / 3;
            f_param = 0;
            f_count = 12;
          };
        ];
    }
  in
  let rt =
    Runtime.create ~config:(config seed) ~policy ~recovery:storm_recovery
      (Runtime.Safe strategy)
  in
  let m = rt.Runtime.machine in
  let tr = Trace.create ~capacity:262144 () in
  Machine.attach_tracer m (Some tr);
  let check = Check.attach_runtime rt in
  let chaos =
    Chaos.install m ~revoker:rt.Runtime.revoker ~mrs:rt.Runtime.mrs schedule
  in
  let rv = Option.get rt.Runtime.revoker in
  ignore
    (Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
         (* churn until the crash burst is spent and the ladder has hit
            the floor, then wind down; bounded so a logic error cannot
            hang the campaign *)
         let rec rounds n =
           churn ~finish:false rt ~seed:(seed + n) ~ops:512 ~spine:64 ctx;
           let spent =
             List.for_all (fun o -> o.Chaos.o_spent) (Chaos.outcomes chaos)
           in
           if (not (spent && Revoker.strategy rv = Revoker.Cherivoke))
              && n < 200
           then rounds (n + 1)
         in
         rounds 0;
         Runtime.finish rt ctx));
  let crashed =
    match Machine.run m with () -> None | exception e -> Some e
  in
  let cell =
    cell_of_run ~rig:"storm" ~seed ~strategy
      ~sched:(Chaos.schedule_id schedule) ~horizon ~requested:strategy rt
      check (Some chaos) (Machine.global_time m) crashed
  in
  (* ladder assertions: Reloaded -> Cornucopia -> Cherivoke, witnessed in
     the trace with the right strategy codes *)
  let shifts = ref [] in
  Trace.iter tr (fun e ->
      if e.Trace.kind = Trace.Strategy_downshift then
        shifts := (e.Trace.arg, e.Trace.arg2) :: !shifts);
  let shifts = List.rev !shifts in
  let expected =
    [
      (Revoker.strategy_code Revoker.Reloaded,
       Revoker.strategy_code Revoker.Cornucopia);
      (Revoker.strategy_code Revoker.Cornucopia,
       Revoker.strategy_code Revoker.Cherivoke);
    ]
  in
  let final_ok = Revoker.strategy rv = Revoker.Cherivoke in
  let ladder_ok = shifts = expected in
  if cell.c_ok && final_ok && ladder_ok then cell
  else
    {
      cell with
      c_ok = false;
      c_note =
        (if cell.c_note <> "" then cell.c_note
         else if not final_ok then
           "storm did not degrade to cherivoke (final "
           ^ Revoker.strategy_name (Revoker.strategy rv)
           ^ ")"
         else
           Printf.sprintf "unexpected downshift ladder [%s]"
             (String.concat "; "
                (List.map
                   (fun (a, b) -> Printf.sprintf "%d->%d" a b)
                   shifts)));
    }

(* ---- reporting ---- *)

let print_cell verbose c =
  if c.c_report <> "" then Format.eprintf "%s" c.c_report;
  if verbose || not c.c_ok then begin
    let rs = c.c_rs in
    Format.printf
      "%-11s seed %-3d %-12s %-4s sched %08x epochs %-3d inj [%s] aborts %d \
       crash-retries %d wd %d shifts %d final %s%s@."
      c.c_rig c.c_seed c.c_strategy
      (if c.c_ok then "ok" else "FAIL")
      c.c_sched c.c_epochs
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) c.c_injected))
      rs.Revoker.epoch_aborts rs.Revoker.sweep_crash_retries
      rs.Revoker.quiesce_timeouts rs.Revoker.downshifts c.c_final
      (if c.c_note = "" then "" else " — " ^ c.c_note)
  end

let cell_record c =
  let rs = c.c_rs in
  Cli.Json.(
    Obj
      ((("rig", String c.c_rig) :: schema ())
      @ [
          ("seed", Int c.c_seed);
          ("strategy", String c.c_strategy);
          ("final", String c.c_final);
          ("schedule", Int c.c_sched);
          ("horizon", Int c.c_horizon);
          ("ok", Bool c.c_ok);
          ("epochs", Int c.c_epochs);
          ("cycles", Int c.c_cycles);
          ("injected", Obj (List.map (fun (k, n) -> (k, Int n)) c.c_injected));
          ("unfired", List (List.map (fun k -> String k) c.c_unfired));
          ("epoch_aborts", Int rs.Revoker.epoch_aborts);
          ("sweep_crash_retries", Int rs.Revoker.sweep_crash_retries);
          ("quiesce_timeouts", Int rs.Revoker.quiesce_timeouts);
          ("backoff_cycles", Int rs.Revoker.backoff_cycles);
          ("downshifts", Int rs.Revoker.downshifts);
          ("throttled_allocs", Int c.c_throttled);
          ("abandoned_bytes", Int c.c_abandoned);
          ("note", String c.c_note);
        ]))

(* ---- CLI ---- *)

(* The fault kinds the churn rig can fire. tenant-kill needs a victim
   process, so only the tenant-kill rig arms it. *)
let churn_kinds =
  Chaos.[ Sweep_crash; Stuck_quiesce; Shootdown_ack_loss; Tag_corruption; Quarantine_stall ]

let kind_conv =
  Cli.named ~what:"churn fault kind"
    (fun s -> List.find_opt (fun k -> Chaos.kind_name k = s) churn_kinds)
    Chaos.kind_name

let seeds_arg =
  Arg.(
    value & opt Cli.pos_int 20
    & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per strategy.")

let seed_base_arg =
  Arg.(value & opt int 1 & info [ "seed-base" ] ~doc:"First seed.")

let ops_arg =
  Arg.(
    value & opt Cli.pos_int 3_000
    & info [ "ops" ] ~doc:"Churn operations per run.")

let strategies_arg =
  Arg.(
    value
    & opt (Cli.list Cli.strategy) Revoker.extended_strategies
    & info [ "strategies" ] ~docv:"NAMES"
        ~doc:"Comma-separated strategies to attack.")

let kinds_arg =
  Arg.(
    value
    & opt (Cli.list kind_conv) churn_kinds
    & info [ "kinds" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated fault kinds for the churn rig: sweep-crash, \
           stuck-quiesce, shootdown-ack-loss, tag-corruption and \
           quarantine-stall (tenant-kill runs its own rig).")

let skip_storm_arg =
  Arg.(value & flag & info [ "skip-storm" ] ~doc:"Skip the storm rig.")

let skip_tenants_arg =
  Arg.(
    value & flag
    & info [ "skip-tenants" ] ~doc:"Skip the tenant-kill rig.")

let json_arg = Cli.json ~doc:"Write per-cell records as JSON to $(docv)."

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every cell.")

let jobs_arg =
  Cli.jobs
    ~doc:
      "Run up to $(docv) campaign cells concurrently on separate domains. \
       Cells are independent seeded simulations reassembled in campaign \
       order, so all output is identical for any $(docv)."

(* Every campaign cell, in reporting order. Cells are independent, so
   they fan out across domains; [Parallel.Pool.map] preserves this
   order, keeping the report and JSON identical for any --jobs. *)
type task =
  | Churn of int * Revoker.strategy
  | Tenant_kill of int * Revoker.strategy
  | Storm of int

let run_task ~ops ~kinds = function
  | Churn (seed, strategy) -> churn_cell ~seed ~ops ~kinds strategy
  | Tenant_kill (seed, strategy) -> Some (tenant_kill_cell ~seed ~ops strategy)
  | Storm seed -> Some (storm_cell ~seed)

let main seeds seed_base ops strategies kinds skip_storm skip_tenants json
    verbose jobs =
  let tasks =
    List.concat_map
      (fun i ->
        let seed = seed_base + i in
        List.concat_map
          (fun strategy ->
            Churn (seed, strategy)
            ::
            (if (not skip_tenants) && i mod 4 = 0 then
               [ Tenant_kill (seed, strategy) ]
             else []))
          strategies)
      (List.init seeds (fun i -> i))
    @ (if skip_storm then [] else [ Storm seed_base ])
  in
  let cells =
    List.filter_map Fun.id
      (Parallel.Pool.map ~jobs (run_task ~ops ~kinds) tasks)
  in
  List.iter (print_cell verbose) cells;
  Option.iter
    (fun path -> Cli.Json.write path (List.map cell_record cells))
    json;
  let failed = List.filter (fun c -> not c.c_ok) cells in
  let injected =
    List.fold_left
      (fun acc c ->
        List.fold_left (fun a (_, n) -> a + n) acc c.c_injected)
      0 cells
  in
  if failed = [] then begin
    Format.printf
      "ccr_chaos: %d cell(s), %d fault injection(s), all recovered, \
       checkers clean@."
      (List.length cells) injected;
    0
  end
  else begin
    Format.printf "ccr_chaos: %d of %d cell(s) FAILED@."
      (List.length failed) (List.length cells);
    1
  end

let cmd =
  Cmd.v
    (Cmd.info "ccr_chaos" ~version:"1.0"
       ~doc:
         "Deterministic fault-injection campaigns: sweep crashes, stuck \
          quiesces, ack loss, tag corruption, drain stalls and tenant kills \
          against every revocation strategy, with the protocol checkers \
          attached.")
    Term.(
      const main $ seeds_arg $ seed_base_arg $ ops_arg $ strategies_arg
      $ kinds_arg $ skip_storm_arg $ skip_tenants_arg $ json_arg
      $ verbose_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
