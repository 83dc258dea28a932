module Machine = Sim.Machine
module Trace = Sim.Trace
module Cap = Cheri.Capability
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs
module Epoch = Ccr.Epoch
module Revmap = Ccr.Revmap
module Sanitizer = Analysis.Sanitizer

type handles = {
  machine : Machine.t;
  tracer : Trace.t;
  end_checks : unit -> string list;
}

type t = {
  s_name : string;
  s_doc : string;
  s_branch : bool;
  s_build :
    strategy:Revoker.strategy ->
    fault:Revoker.fault option ->
    sanitizer:(?revoker:Revoker.t -> Machine.t -> Sanitizer.t) ->
    decide:(Chaos.kind -> bool) ->
    handles;
}

let name t = t.s_name
let doc t = t.s_doc
let branchable t = t.s_branch

(* Two cores — revoker on 0, applications on 1 — and a tiny heap: small
   enough that the interesting interleavings number in the hundreds, not
   the billions. *)
let cfg =
  {
    Machine.default_config with
    cores = 2;
    heap_bytes = 1 lsl 20;
    mem_bytes = 8 lsl 20;
    seed = 7;
  }

let std_end_checks ~revokers ~mrss () =
  let msgs = ref [] in
  let add m = msgs := m :: !msgs in
  List.iter
    (fun rv ->
      let e = Epoch.counter (Revoker.epoch rv) in
      if e land 1 <> 0 then
        add (Printf.sprintf "epoch counter odd at end: %d" e);
      let bits = Revmap.set_bits (Revoker.revmap rv) in
      if bits <> 0 then
        add (Printf.sprintf "revocation bitmap still holds %d granule(s)" bits))
    revokers;
  List.iter
    (fun mrs ->
      let q = Mrs.quarantine_bytes mrs in
      if q <> 0 then add (Printf.sprintf "quarantine not drained: %d byte(s)" q);
      let ab = Mrs.abandoned_bytes mrs in
      if ab <> 0 then
        add (Printf.sprintf "%d quarantined byte(s) abandoned at finish" ab))
    mrss;
  List.rev !msgs

(* Direct machine + revoker + shim world shared by the three
   single-process scenarios. *)
let single_process ~strategy ~fault ?recovery () =
  let rt = Runtime.create ~config:cfg ~revoker_core:0 ?recovery (Runtime.Safe strategy) in
  let m = rt.Runtime.machine and rv = Option.get rt.Runtime.revoker in
  let tr = Trace.create ~capacity:65536 () in
  Machine.attach_tracer m (Some tr);
  Revoker.inject_fault rv fault;
  (m, tr, rv, Option.get rt.Runtime.mrs, rt.Runtime.hoards)

let build_free_during_sweep ~strategy ~fault
    ~(sanitizer : ?revoker:Revoker.t -> Machine.t -> Sanitizer.t) ~decide:_ =
  let m, tr, rv, mrs, hoards = single_process ~strategy ~fault () in
  let san = sanitizer ~revoker:rv m in
  ignore (san : Sanitizer.t);
  let app2_done = ref false in
  let cv = Machine.condvar () in
  ignore
    (Machine.spawn m ~name:"app1" ~core:1 (fun ctx ->
         let victim = Analysis.Check.alias_victim mrs hoards ctx in
         Mrs.free mrs ctx victim;
         Mrs.flush mrs ctx;
         Mrs.wait_drained mrs ctx;
         while not !app2_done do
           Machine.wait ctx cv
         done;
         Mrs.finish mrs ctx));
  ignore
    (Machine.spawn m ~name:"app2" ~core:1 (fun ctx ->
         let c = Mrs.malloc mrs ctx 256 in
         Machine.store_u64 ctx c 1L;
         Mrs.free mrs ctx c;
         Mrs.flush mrs ctx;
         Mrs.wait_drained mrs ctx;
         app2_done := true;
         Machine.broadcast ctx cv));
  {
    machine = m;
    tracer = tr;
    end_checks = std_end_checks ~revokers:[ rv ] ~mrss:[ mrs ];
  }

let build_bulk_free ~strategy ~fault
    ~(sanitizer : ?revoker:Revoker.t -> Machine.t -> Sanitizer.t) ~decide:_ =
  let m, tr, rv, mrs, hoards = single_process ~strategy ~fault () in
  let san = sanitizer ~revoker:rv m in
  ignore (san : Sanitizer.t);
  let app2_done = ref false in
  let cv = Machine.condvar () in
  ignore
    (Machine.spawn m ~name:"app1" ~core:1 (fun ctx ->
         let victim = Analysis.Check.alias_victim mrs hoards ctx in
         let burst =
           List.map (fun sz -> Mrs.malloc mrs ctx sz) [ 256; 192; 320 ]
         in
         List.iter (fun c -> Machine.store_u64 ctx c 3L) burst;
         (* one batch, several regions: the victim plus the burst *)
         Mrs.free mrs ctx victim;
         List.iter (fun c -> Mrs.free mrs ctx c) burst;
         Mrs.flush mrs ctx;
         Mrs.wait_drained mrs ctx;
         while not !app2_done do
           Machine.wait ctx cv
         done;
         Mrs.finish mrs ctx));
  ignore
    (Machine.spawn m ~name:"app2" ~core:1 (fun ctx ->
         let a = Mrs.malloc mrs ctx 256 in
         let b = Mrs.malloc mrs ctx 128 in
         (* cross-linked: each block holds a capability to the other *)
         Machine.store_cap ctx (Cap.set_addr a (Cap.base a)) b;
         Machine.store_cap ctx (Cap.set_addr b (Cap.base b)) a;
         Mrs.free mrs ctx b;
         Mrs.free mrs ctx a;
         Mrs.flush mrs ctx;
         Mrs.wait_drained mrs ctx;
         app2_done := true;
         Machine.broadcast ctx cv));
  {
    machine = m;
    tracer = tr;
    end_checks = std_end_checks ~revokers:[ rv ] ~mrss:[ mrs ];
  }

(* Tightened recovery budget: one sweep-crash resume, one quiesce retry,
   two epoch aborts before downshifting — every recovery path is a few
   branch decisions away instead of many. *)
let crash_recovery =
  {
    Revoker.default_recovery with
    watchdog_timeout = 150_000;
    max_quiesce_retries = 1;
    backoff_base = 2_000;
    max_crash_retries = 1;
    max_epoch_aborts = 2;
  }

let build_crash_mid_sweep ~strategy ~fault
    ~(sanitizer : ?revoker:Revoker.t -> Machine.t -> Sanitizer.t) ~decide =
  let m, tr, rv, mrs, hoards =
    single_process ~strategy ~fault ~recovery:crash_recovery ()
  in
  let san = sanitizer ~revoker:rv m in
  ignore (san : Sanitizer.t);
  ignore
    (Chaos.install_branch m ~revoker:rv ~budget:2 ~stuck_drain:500_000
       ~kinds:[ Chaos.Sweep_crash; Chaos.Stuck_quiesce ]
       ~decide ());
  ignore
    (Machine.spawn m ~name:"app" ~core:1 (fun ctx ->
         let victim = Analysis.Check.alias_victim mrs hoards ctx in
         Mrs.free mrs ctx victim;
         Mrs.flush mrs ctx;
         (* one syscall the quiesce can catch mid-drain: with the
            branchable stuck-quiesce inflation its drain outlasts the
            watchdog *)
         Kernel.Syscall.perform_service ctx ~service:150_000;
         Mrs.wait_drained mrs ctx;
         Mrs.finish mrs ctx));
  {
    machine = m;
    tracer = tr;
    end_checks = std_end_checks ~revokers:[ rv ] ~mrss:[ mrs ];
  }

let build_fork_during_epoch ~strategy ~fault ~sanitizer ~decide:_ =
  let os = Os.create ~config:cfg ~revoker_core:0 (Runtime.Safe strategy) in
  let m = Os.machine os in
  let tr = Trace.create ~capacity:65536 () in
  Machine.attach_tracer m (Some tr);
  let rt = Os.runtime (Os.init os) in
  let san = sanitizer ?revoker:rt.Runtime.revoker m in
  Os.set_on_process os (fun p ->
      Sanitizer.register_process san ~pid:(Os.pid p)
        ?revoker:(Os.runtime p).Runtime.revoker ());
  (match rt.Runtime.revoker with
  | Some rv -> Revoker.inject_fault rv fault
  | None -> ());
  Os.spawn_reaper os;
  ignore
    (Machine.spawn m ~name:"init" ~core:1 (fun ctx ->
         let mrs = Option.get rt.Runtime.mrs in
         let victim = Mrs.malloc mrs ctx 128 in
         Machine.store_u64 ctx victim 0x5ec2e7L;
         Sim.Regfile.set (Machine.regs (Machine.self ctx)) 5 victim;
         Mrs.free mrs ctx victim;
         Mrs.flush mrs ctx;
         (* fork while the victim's epoch may still be in flight: the
            child inherits the painted quarantine across the fork *)
         ignore
           (Os.fork os ctx ~parent:(Os.init os) ~name:"child" ~core:1
              (fun cctx proc ->
                let crt = Os.runtime proc in
                let cmrs = Option.get crt.Runtime.mrs in
                let c = Mrs.malloc cmrs cctx 192 in
                Machine.store_u64 cctx c 2L;
                Mrs.free cmrs cctx c;
                Mrs.flush cmrs cctx;
                Mrs.wait_drained cmrs cctx;
                Os.exit os cctx proc));
         Mrs.wait_drained mrs ctx;
         Os.wait_children os ctx;
         Os.shutdown os ctx));
  let end_checks () =
    let procs = Os.procs os in
    let revokers =
      List.filter_map (fun p -> (Os.runtime p).Runtime.revoker) procs
    in
    let mrss = List.filter_map (fun p -> (Os.runtime p).Runtime.mrs) procs in
    std_end_checks ~revokers ~mrss ()
  in
  { machine = m; tracer = tr; end_checks }

let all =
  [
    {
      s_name = "free-during-sweep";
      s_doc = "two threads free and drain while the revoker sweeps";
      s_branch = false;
      s_build = build_free_during_sweep;
    };
    {
      s_name = "bulk-free";
      s_doc = "a four-block burst races two cross-linked frees";
      s_branch = false;
      s_build = build_bulk_free;
    };
    {
      s_name = "crash-mid-sweep";
      s_doc = "branchable sweep crashes and stuck quiesces under a tight recovery budget";
      s_branch = true;
      s_build = build_crash_mid_sweep;
    };
    {
      s_name = "fork-during-epoch";
      s_doc = "fork and child exit while the parent's epoch is in flight";
      s_branch = false;
      s_build = build_fork_during_epoch;
    };
  ]

let find n = List.find_opt (fun t -> t.s_name = n) all

let build t ~strategy ?fault ~sanitizer ~decide () =
  t.s_build ~strategy ~fault ~sanitizer ~decide
