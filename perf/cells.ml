(* The four benchmark workloads, their cells, and the metrics a pass
   over them yields.

   A cell is one simulation run through a library entry point
   ([Workload.Spec.run], [Workload.Serve.run], [Workload.Tenantecon.run])
   with inputs derived from the seed. A pass runs every cell of a
   workload once. Simulated results are deterministic, so every pass of
   a run must reproduce the first exactly; host times vary, so the run
   reports their median over the passes. *)

module Machine = Sim.Machine
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Result = Workload.Result
module Profile = Workload.Profile
module Serve = Workload.Serve
module Tecon = Workload.Tenantecon
module Loadgen = Service.Loadgen

type workload = Spec_baseline | Spec_revoke | Serve_knee | Tenant_storm

let workloads =
  [
    ("spec_baseline", Spec_baseline);
    ("spec_revoke", Spec_revoke);
    ("serve_knee", Serve_knee);
    ("tenant_storm", Tenant_storm);
  ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

let default_seed = function
  | Spec_baseline | Spec_revoke | Tenant_storm -> 1
  | Serve_knee -> 11

(* ---- sizes (scaled by [--scale]) ---- *)

(* Chosen so that one pass takes about 2-3 s of host time on a 2-core
   x86-64 container: a 20 s run then holds 6-9 passes. *)
let spec_baseline_ops = 0.15
let spec_revoke_ops = 0.1
let spec_revoke_profiles = [ "omnetpp"; "astar_lakes"; "hmmer_nph3"; "hmmer_retro"; "libquantum" ]
let serve_rates = [ 80e3; 85e3; 90e3; 95e3; 100e3; 105e3; 110e3; 115e3 ]
let serve_cornucopia_rate = 110e3
let serve_requests = 12_000

(* Deep enough that no point sheds: every request is served and its
   latency, however long, is measured. *)
let serve_queue_depth = 4096
let tenant_storms = 4
let tenant_requests = 25_000
let slo_us = 1000.0

let reloaded = Runtime.Safe Revoker.Reloaded
let cornucopia = Runtime.Safe Revoker.Cornucopia

(* ---- observations ---- *)

type cache = { accesses : int; l1 : int; l2 : int; bus : int }

let no_cache = { accesses = 0; l1 = 0; l2 = 0; bus = 0 }

let cache_of m cores =
  List.fold_left
    (fun acc core ->
      let s = Machine.cache_stats m core in
      {
        accesses = acc.accesses + s.Tagmem.Cache.accesses;
        l1 = acc.l1 + s.Tagmem.Cache.l1_hits;
        l2 = acc.l2 + s.Tagmem.Cache.l2_hits;
        bus = acc.bus + s.Tagmem.Cache.bus_reads + s.Tagmem.Cache.bus_writes;
      })
    no_cache cores

(* Simulated outcome of one cell: everything the pass-identity and
   traced-equivalence gates compare. *)
type sim =
  | Spec of Result.t
  | Serve of { rate : float; governed : bool; o : Serve.outcome }
  | Tenant of { r : Tecon.result; phases : Revoker.phase_record list; mrs : Ccr.Mrs.stats list }

type obs = {
  sim : sim option; (* [None]: the cell raised *)
  wall : int; (* simulated cycles, start to finish of the workload's threads *)
  cpu : int; (* busy cycles summed over cores *)
  bus : int;
  ops : int; (* completed SPEC ops or served requests *)
  app_cache : cache;
  rev_cache : cache;
  live_untagged : int; (* counted by the traced SPEC driver only *)
  attempted : int;
  failed : int;
  gate : string option; (* the first gate this cell failed *)
}

let fingerprint (o : obs) = Digest.string (Marshal.to_string o.sim [ Marshal.No_sharing ])

type mode = Plain | Checked | Traced of Probe.t

(* Sanitizer and race detector over one machine, for [--check]. *)
type checkers = { mutable san : Analysis.Sanitizer.t option; mutable race : Analysis.Race.t option }

let checkers () = { san = None; race = None }

let attach_checkers ck ?revoker m =
  let s = Analysis.Sanitizer.attach ?revoker m in
  ck.san <- Some s;
  ck.race <- Some (Analysis.Race.attach m);
  s

let checkers_gate ck =
  match (ck.san, ck.race) with
  | Some san, Some race ->
      Analysis.Sanitizer.finish san;
      if not (Analysis.Sanitizer.ok san) then
        Some (Printf.sprintf "sanitizer: %d violation(s)" (Analysis.Sanitizer.total_violations san))
      else if not (Analysis.Race.ok race) then
        Some (Printf.sprintf "race detector: %d race(s)" (List.length (Analysis.Race.races race)))
      else None
    | _ -> None

type cell = {
  label : string;
  planned : int; (* ops the cell attempts *)
  setup : unit -> float;
      (* Makes the cell's public set-up calls on a throwaway machine;
         returns the part spent compiling op streams, in seconds. *)
  run : mode -> obs;
}

let totals_obs m ~sim ~wall ~ops ~app ~rev ~attempted ~failed ~gate ~live_untagged =
  let t = Machine.totals m in
  {
    sim = Some sim;
    wall;
    cpu = t.Machine.cpu_cycles;
    bus = t.Machine.bus_transactions;
    ops;
    app_cache = cache_of m app;
    rev_cache = cache_of m rev;
    live_untagged;
    attempted;
    failed;
    gate;
  }

(* ---- SPEC cells ---- *)

let spec_cell ~seed ~ops_scale ~interp ~mode (p : Profile.t) =
  let ops = int_of_float (float_of_int p.Profile.ops *. ops_scale) in
  let setup () =
    ignore (Spec_driver.create_runtime ~seed ~mode p);
    match interp with
    | Workload.Spec.Compiled ->
        let t0 = Clock.cpu_s () in
        ignore (Workload.Opstream.compile p ~rng:(Sim.Prng.create ~seed:(seed * 7919)) ~ops);
        Clock.cpu_s () -. t0
    | Workload.Spec.Reference -> 0.0
  in
  let finish (r : Result.t) rt ~live_untagged ~gate =
    totals_obs rt.Runtime.machine ~sim:(Spec r) ~wall:r.Result.wall_cycles
      ~ops:r.Result.ops_done ~app:[ 3 ] ~rev:[ 2 ] ~attempted:ops
      ~failed:(if gate = None then 0 else ops)
      ~gate ~live_untagged
  in
  let run = function
    | Traced pr ->
        let r, live_untagged, rt = Spec_driver.run pr ~seed ~ops_scale ~mode p in
        finish r rt ~live_untagged ~gate:None
    | (Plain | Checked) as m ->
        let ck = checkers () in
        let rt_ref = ref None in
        let on_runtime rt =
          rt_ref := Some rt;
          match m with
          | Checked -> ignore (attach_checkers ck ?revoker:rt.Runtime.revoker rt.Runtime.machine)
          | Plain | Traced _ -> ()
        in
        let r = Workload.Spec.run ~seed ~ops_scale ~interp ~on_runtime ~mode p in
        finish r (Option.get !rt_ref) ~live_untagged:0 ~gate:(checkers_gate ck)
  in
  { label = p.Profile.name ^ "/" ^ Runtime.mode_name mode; planned = ops; setup; run }

(* ---- serving cells ---- *)

let serve_machine_config ~seed =
  let heap_bytes = 24 * 1024 * 1024 in
  {
    Machine.default_config with
    heap_bytes;
    mem_bytes = heap_bytes + (heap_bytes / 16) + (8 * 1024 * 1024);
    seed;
  }

let serve_cell ~seed ~requests ~rate ~governed ~mode =
  let config =
    {
      Serve.default_config with
      Serve.pattern = Loadgen.Poisson rate;
      requests;
      queue_depth = serve_queue_depth;
      seed;
    }
  in
  let setup () =
    ignore (Runtime.create ~config:(serve_machine_config ~seed) ~revoker_core:3 mode);
    ignore (Loadgen.schedule { Loadgen.pattern = config.Serve.pattern; requests; seed });
    0.0
  in
  let run m =
    let ck = checkers () in
    let rt_ref = ref None in
    let on_runtime rt =
      rt_ref := Some rt;
      match m with
      | Traced pr -> Probe.attach pr rt.Runtime.machine
      | Checked -> ignore (attach_checkers ck ?revoker:rt.Runtime.revoker rt.Runtime.machine)
      | Plain -> ()
    in
    let tracer = match m with Traced pr -> Probe.cell_begin pr; Some (Probe.tracer ()) | _ -> None in
    let o = Serve.run ~config ?tracer ~on_runtime ~governed ~mode () in
    (match m with Traced pr -> Probe.cell_end pr | _ -> ());
    let shed = o.Serve.shed_depth + o.Serve.shed_deadline in
    let gate =
      if o.Serve.served + shed <> o.Serve.offered || o.Serve.offered <> requests then
        Some
          (Printf.sprintf "served %d + shed %d <> offered %d (of %d)" o.Serve.served shed
             o.Serve.offered requests)
      else checkers_gate ck
    in
    totals_obs (Option.get !rt_ref).Runtime.machine
      ~sim:(Serve { rate; governed; o })
      ~wall:o.Serve.result.Result.wall_cycles ~ops:o.Serve.served ~app:[ 2; 3 ] ~rev:[]
      ~attempted:requests
      ~failed:(if gate = None then shed else requests)
      ~gate ~live_untagged:0
  in
  let label =
    Printf.sprintf "%s%s@%.0fk" (Runtime.mode_name mode)
      (if governed then "+governor" else "")
      (rate /. 1000.0)
  in
  { label; planned = requests; setup; run }

(* ---- tenant storm ---- *)

(* [Tenantecon.run]'s machine configuration. *)
let tenant_machine_config (cfg : Tecon.config) =
  let quota i = cfg.Tecon.quota_base * (i + 1) in
  let heap_bytes = max (4 * 1024 * 1024) (4 * quota (cfg.Tecon.tenants - 1)) in
  {
    Machine.default_config with
    heap_bytes;
    mem_bytes = ((cfg.Tecon.tenants + 1) * (heap_bytes + (heap_bytes / 16))) + (8 * 1024 * 1024);
    seed = cfg.Tecon.seed;
  }

let tenant_cell ~seed ~requests ~index =
  let seed = (seed * tenant_storms) + index in
  let cfg = { Tecon.default_config with Tecon.requests; seed } in
  let mode = reloaded in
  let planned = requests * cfg.Tecon.tenants in
  let setup () =
    ignore
      (Os.create ~config:(tenant_machine_config cfg) ~sched:cfg.Tecon.sched ~revoker_core:2 mode);
    for i = 0 to cfg.Tecon.tenants - 1 do
      ignore
        (Loadgen.schedule
           { Loadgen.pattern = Loadgen.Poisson cfg.Tecon.rate; requests; seed = seed + (101 * i) })
    done;
    0.0
  in
  let run m =
    let ck = checkers () in
    let os_ref = ref None in
    let procs = ref [] in
    let on_os os =
      os_ref := Some os;
      let san =
        match m with
        | Traced pr ->
            Probe.attach pr (Os.machine os);
            None
        | Checked ->
            let init_rt = Os.runtime (Os.init os) in
            Some (attach_checkers ck ?revoker:init_rt.Runtime.revoker (Os.machine os))
        | Plain -> None
      in
      Os.set_on_process os (fun p ->
          procs := p :: !procs;
          Option.iter
            (fun s ->
              Analysis.Sanitizer.register_process s ~pid:(Os.pid p)
                ?revoker:(Os.runtime p).Runtime.revoker ())
            san)
    in
    let tracer = match m with Traced pr -> Probe.cell_begin pr; Some (Probe.tracer ()) | _ -> None in
    let r = Tecon.run ?tracer ~on_os ~config:cfg ~mode () in
    (match m with Traced pr -> Probe.cell_end pr | _ -> ());
    let os = Option.get !os_ref in
    let runtimes = List.map Os.runtime (Os.init os :: List.rev !procs) in
    let phases = List.concat_map Runtime.revoker_records runtimes in
    let mrs = List.filter_map Runtime.mrs_stats runtimes in
    (* Requests the injected crash destroys are the scenario, not
       failures: they are neither attempted nor failed. *)
    let storm_lost, served, bad =
      List.fold_left
        (fun (sl, sv, bad) (o : Tecon.tenant_outcome) ->
          let refused =
            o.Tecon.o_shed_quota + o.Tecon.o_shed_depth + o.Tecon.o_shed_deadline
            + o.Tecon.o_denied_quota + o.Tecon.o_denied_phys
          in
          if o.Tecon.o_crashed then (sl + o.Tecon.o_lost, sv + o.Tecon.o_served, bad + refused)
          else (sl, sv + o.Tecon.o_served, bad + refused + o.Tecon.o_lost))
        (0, 0, 0) r.Tecon.per_tenant
    in
    let attempted = planned - storm_lost in
    let gate =
      if not r.Tecon.identity_ok then Some "offered <> served + shed + lost"
      else if not r.Tecon.conserved then Some "quota ledger not conserved"
      else checkers_gate ck
    in
    totals_obs (Os.machine os)
      ~sim:(Tenant { r; phases; mrs })
      ~wall:r.Tecon.wall_cycles ~ops:served ~app:[ 3; 1 ] ~rev:[ 2 ] ~attempted
      ~failed:(if gate = None then bad else attempted)
      ~gate ~live_untagged:0
  in
  { label = Printf.sprintf "storm-%d" index; planned; setup; run }

(* ---- workloads ---- *)

let cells ?(scale = 1.0) ~seed = function
  | Spec_baseline ->
      List.map
        (fun p ->
          spec_cell ~seed ~ops_scale:(spec_baseline_ops *. scale) ~interp:Workload.Spec.Compiled
            ~mode:Runtime.Baseline p)
        Profile.spec_all
  | Spec_revoke ->
      (* The reference interpreter: under the compiled one, the
         sweep's untag race (README, "Known defects") raises
         [Opstream.Divergence] in some cell on about a third of seeds. *)
      List.concat_map
        (fun name ->
          List.map
            (fun mode ->
              spec_cell ~seed ~ops_scale:(spec_revoke_ops *. scale)
                ~interp:Workload.Spec.Reference ~mode (Profile.find name))
            [ Runtime.Baseline; cornucopia; reloaded ])
        spec_revoke_profiles
  | Serve_knee ->
      let requests = max 1 (int_of_float (float_of_int serve_requests *. scale)) in
      List.map (fun rate -> serve_cell ~seed ~requests ~rate ~governed:true ~mode:reloaded) serve_rates
      @ [ serve_cell ~seed ~requests ~rate:serve_cornucopia_rate ~governed:false ~mode:cornucopia ]
  | Tenant_storm ->
      (* independent storms, so that a pass has several cells to time *)
      let requests = max 1 (int_of_float (float_of_int tenant_requests *. scale)) in
      List.init tenant_storms (fun index -> tenant_cell ~seed ~requests ~index)

let run_cell cell mode =
  match cell.run mode with
  | o -> o
  | exception e ->
      {
        sim = None;
        wall = 0;
        cpu = 0;
        bus = 0;
        ops = 0;
        app_cache = no_cache;
        rev_cache = no_cache;
        live_untagged = 0;
        attempted = cell.planned;
        failed = cell.planned;
        gate = Some ("raised " ^ Printexc.to_string e);
      }
