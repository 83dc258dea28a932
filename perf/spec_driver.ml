(* The traced SPEC driver: a copy of [Workload.Spec.app_body] (the
   reference interpreter) and of [Workload.Spec.run] whose calls into
   the allocator and the memory model are bracketed by {!Probe} spans.
   The copy must stay draw-for-draw and charge-for-charge identical to
   the library: every traced pass checks that its [Result.t] equals the
   one [Spec.run] produced for the same cell.

   Spans: [Runtime.malloc] and [Runtime.free] are the alloc layer (the
   allocator, plus the mrs quarantine shim under a revoking mode);
   [Machine.load_u64]/[store_u64]/[load_cap]/[store_cap] and
   [Objtable.get]/[put] (one capability load or store each) are the mem
   layer, minus any load-barrier fault inside them. The rest of the
   application thread's time is the interpreter's own. *)

module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Runtime = Ccr.Runtime
module Profile = Workload.Profile
module Objtable = Workload.Objtable
module Result = Workload.Result

let granule = 16
let r_work = 1
let r_chase = 2
let r_recent = 3

type ctx = {
  pr : Probe.t;
  p : Profile.t;
  rt : Runtime.t;
  rng : Prng.t;
  mctx : Machine.ctx;
  regs : Sim.Regfile.t;
  table : Objtable.t;
  mutable live_untagged : int;
      (* live table slots found holding an untagged capability: the
         reference interpreter skips them, but no correct revoker ever
         untags a capability to a live object *)
}

let malloc c size =
  Probe.enter c.pr;
  let v = Runtime.malloc c.rt c.mctx size in
  Probe.leave c.pr Probe.malloc;
  v

let free c cap =
  Probe.enter c.pr;
  Runtime.free c.rt c.mctx cap;
  Probe.leave c.pr Probe.free

let load_u64 c cap =
  Probe.enter c.pr;
  ignore (Machine.load_u64 c.mctx cap);
  Probe.leave c.pr Probe.mem

let store_u64 c cap v =
  Probe.enter c.pr;
  Machine.store_u64 c.mctx cap v;
  Probe.leave c.pr Probe.mem

let load_cap c cap =
  Probe.enter c.pr;
  let v = Machine.load_cap c.mctx cap in
  Probe.leave c.pr Probe.mem;
  v

let store_cap c slot v =
  Probe.enter c.pr;
  Machine.store_cap c.mctx slot v;
  Probe.leave c.pr Probe.mem

let table_get c slot =
  Probe.enter c.pr;
  let v = Objtable.get c.table c.mctx slot in
  Probe.leave c.pr Probe.mem;
  v

let table_put c slot cap ~size =
  Probe.enter c.pr;
  Objtable.put c.table c.mctx slot cap ~size;
  Probe.leave c.pr Probe.mem

(* From here to [app_body]: Spec's interpreter, call for call. *)

let init_body c cap =
  let granules = Capability.length cap / granule in
  let stores = min granules 32 in
  let base = Capability.base cap in
  for _ = 1 to stores do
    let g = Prng.int c.rng granules in
    let slot = Capability.set_addr cap (base + (g * granule)) in
    if Prng.float c.rng 1.0 < c.p.Profile.ptr_density then begin
      let v = Sim.Regfile.get c.regs r_recent in
      if Capability.tag v then store_cap c slot v
      else store_u64 c slot (Int64.of_int g)
    end
    else store_u64 c slot (Int64.of_int g)
  done

let alloc_into c slot =
  let size = Profile.sample c.rng c.p.Profile.size_c in
  let cap = malloc c size in
  Sim.Regfile.set c.regs r_work cap;
  init_body c cap;
  table_put c slot cap ~size:(Capability.length cap);
  Sim.Regfile.set c.regs r_recent cap

let access_op c =
  let p = c.p in
  match
    Objtable.random_live c.table c.rng ~hot:p.Profile.hot_fraction
      ~weight:p.Profile.hot_weight
  with
  | None -> ()
  | Some slot ->
      let cap = table_get c slot in
      if Capability.tag cap then begin
        Sim.Regfile.set c.regs r_work cap;
        Sim.Regfile.set c.regs r_recent cap;
        let len = Capability.length cap in
        let base = Capability.base cap in
        let window = min len 32768 in
        let word_at g = Capability.set_addr cap (base + (g * granule)) in
        for _ = 1 to p.Profile.reads_per_op do
          load_u64 c (word_at (Prng.int c.rng (window / granule)))
        done;
        for _ = 1 to p.Profile.writes_per_op do
          store_u64 c (word_at (Prng.int c.rng (window / granule))) (Int64.of_int slot)
        done;
        let cursor = ref cap in
        for _ = 1 to p.Profile.chase_depth do
          let cur = !cursor in
          let clen = Capability.length cur in
          if clen >= granule then begin
            let g = Prng.int c.rng (clen / granule) in
            let addr = Capability.base cur + (g * granule) in
            let next = load_cap c (Capability.set_addr cur addr) in
            if Capability.tag next && Capability.can_load next then begin
              Sim.Regfile.set c.regs r_chase next;
              load_u64 c (Capability.set_addr next (Capability.base next));
              cursor := next
            end
            else Machine.charge c.mctx Sim.Cost.alu
          end
        done
      end
      else c.live_untagged <- c.live_untagged + 1

let churn_op c ~realloc =
  match Objtable.random_live c.table c.rng ~hot:1.0 ~weight:0.0 with
  | None -> ()
  | Some slot ->
      let cap = table_get c slot in
      if Capability.tag cap then begin
        Sim.Regfile.set c.regs r_work cap;
        free c cap;
        if Prng.bool c.rng then Sim.Regfile.set c.regs r_work Capability.null;
        if Capability.equal (Sim.Regfile.get c.regs r_recent) cap then
          Sim.Regfile.set c.regs r_recent Capability.null;
        Objtable.kill c.table slot;
        if realloc then alloc_into c slot
      end
      else begin
        c.live_untagged <- c.live_untagged + 1;
        Objtable.kill c.table slot
      end

let birth_op c =
  match Objtable.random_dead c.table c.rng with
  | None -> ()
  | Some slot -> alloc_into c slot

let app_body c ~ops ~ops_done =
  let p = c.p in
  let initial = int_of_float (p.Profile.target_live *. float_of_int p.Profile.slots) in
  for slot = 0 to initial - 1 do
    alloc_into c slot
  done;
  for _ = 1 to ops do
    let x = Prng.float c.rng 1.0 in
    if x < p.Profile.churn then churn_op c ~realloc:true
    else if x < p.Profile.churn +. p.Profile.kill_only then churn_op c ~realloc:false
    else if x < p.Profile.churn +. p.Profile.kill_only +. p.Profile.birth_only then
      birth_op c
    else access_op c;
    if p.Profile.compute_per_op > 0 then Machine.charge c.mctx p.Profile.compute_per_op;
    incr ops_done
  done

(* [Spec.run]'s machine configuration for a profile. *)
let machine_config ~seed (p : Profile.t) =
  let heap_bytes = Profile.heap_bytes_needed p in
  {
    Machine.default_config with
    heap_bytes;
    mem_bytes = heap_bytes + (heap_bytes / 16) + (8 * 1024 * 1024);
    seed;
  }

let create_runtime ~seed ~mode p =
  Runtime.create ~config:(machine_config ~seed p) ~revoker_core:2 ~non_temporal:false
    ~allocator:Runtime.Snmalloc mode

(* [Spec.run ~seed ~ops_scale ~mode p] under the probe. Returns the
   result and the number of untagged live slots the run met. *)
let run pr ~seed ~ops_scale ~mode (p : Profile.t) =
  Probe.cell_begin pr;
  let rt = create_runtime ~seed ~mode p in
  let m = rt.Runtime.machine in
  Machine.attach_tracer m (Some (Probe.tracer ()));
  Probe.attach pr m;
  let rng = Prng.create ~seed:(seed * 7919) in
  let ops = int_of_float (float_of_int p.Profile.ops *. ops_scale) in
  let wall_end = ref 0 in
  let ops_done = ref 0 in
  let live_untagged = ref 0 in
  let app =
    Machine.spawn m ~name:"app" ~core:3 (fun mctx ->
        let regs = Machine.regs (Machine.self mctx) in
        let table = Objtable.create rt mctx ~slots:p.Profile.slots in
        let c = { pr; p; rt; rng; mctx; regs; table; live_untagged = 0 } in
        app_body c ~ops ~ops_done;
        live_untagged := c.live_untagged;
        wall_end := Machine.now mctx;
        Runtime.finish rt mctx)
  in
  Machine.run m;
  let totals = Machine.totals m in
  let r =
    {
      Result.workload = p.Profile.name;
      mode = Runtime.mode_name mode;
      wall_cycles = !wall_end;
      cpu_cycles = totals.Machine.cpu_cycles;
      app_cpu_cycles = Machine.thread_cpu_cycles app;
      bus_total = totals.Machine.bus_transactions;
      bus_app_core = Machine.bus_transactions_of_core m 3;
      peak_rss_pages = rt.Runtime.alloc.Alloc.Backend.peak_rss_pages ();
      clg_faults = totals.Machine.clg_faults;
      ops_done = !ops_done;
      latencies_us = [||];
      latencies_closed_us = [||];
      throughput = 0.0;
      scrub_bytes = rt.Runtime.alloc.Alloc.Backend.scrub_bytes ();
      mrs = Runtime.mrs_stats rt;
      phases = Runtime.revoker_records rt;
    }
  in
  Probe.cell_end pr;
  (r, !live_untagged, rt)
