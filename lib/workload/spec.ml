module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Runtime = Ccr.Runtime

let granule = 16

(* Register conventions for workload threads: r0 the table handle's spare,
   r1 the op's working object, r2 the chase cursor, r3 the most recently
   allocated object (source of capabilities stored into object bodies). *)
let r_work = 1
let r_chase = 2
let r_recent = 3

(* Initialize a fresh object's body: a bounded number of stores, a
   [ptr_density] fraction of which are capability stores of the most
   recently used object (creating inter-object pointers that revocation
   must later find). *)
let init_body (p : Profile.t) ctx rng regs cap =
  let granules = Capability.length cap / granule in
  let stores = min granules 32 in
  let base = Capability.base cap in
  for _ = 1 to stores do
    let g = Prng.int rng granules in
    let va = base + (g * granule) in
    if Prng.float rng 1.0 < p.Profile.ptr_density then begin
      let v = Sim.Regfile.get regs r_recent in
      if Capability.tag v then Machine.store_cap_at ctx cap va v
      else Machine.store_u64_at ctx cap va (Int64.of_int g)
    end
    else Machine.store_u64_at ctx cap va (Int64.of_int g)
  done

let alloc_into (p : Profile.t) rt ctx rng regs table slot =
  let size = Profile.sample rng p.Profile.size_c in
  let c = Runtime.malloc rt ctx size in
  Sim.Regfile.set regs r_work c;
  init_body p ctx rng regs c;
  Objtable.put table ctx slot c ~size:(Capability.length c);
  Sim.Regfile.set regs r_recent c

let access_op (p : Profile.t) ctx rng regs table =
  match
    Objtable.random_live table rng ~hot:p.Profile.hot_fraction
      ~weight:p.Profile.hot_weight
  with
  | None -> ()
  | Some slot ->
      let c = Objtable.get table ctx slot in
      if Capability.tag c then begin
        Sim.Regfile.set regs r_work c;
        Sim.Regfile.set regs r_recent c;
        let base = Capability.base c in
        let granules = Int.min (Capability.length c) 32768 / granule in
        for _ = 1 to p.Profile.reads_per_op do
          Machine.touch_u64_at ctx c (base + (Prng.int rng granules * granule))
        done;
        for _ = 1 to p.Profile.writes_per_op do
          Machine.store_u64_at ctx c
            (base + (Prng.int rng granules * granule))
            (Int64.of_int slot)
        done;
        (* pointer chase: follow capabilities stored in object bodies *)
        let cursor = ref c in
        for _ = 1 to p.Profile.chase_depth do
          let cur = !cursor in
          let clen = Capability.length cur in
          if clen >= granule then begin
            let g = Prng.int rng (clen / granule) in
            let next = Machine.load_cap_at ctx cur (Capability.base cur + (g * granule)) in
            if Capability.tag next && Capability.can_load next then begin
              Sim.Regfile.set regs r_chase next;
              Machine.touch_u64_at ctx next (Capability.base next);
              cursor := next
            end
            else Machine.charge ctx Sim.Cost.alu
          end
        done
      end

let churn_op (p : Profile.t) rt ctx rng regs table ~realloc =
  match Objtable.random_live table rng ~hot:1.0 ~weight:0.0 with
  | None -> ()
  | Some slot ->
      let c = Objtable.get table ctx slot in
      if Capability.tag c then begin
        Sim.Regfile.set regs r_work c;
        Runtime.free rt ctx c;
        (* The stale capability remains in the table slot (and possibly in
           other object bodies): exactly the dangling pointers revocation
           exists to neutralize. Clear only our register copy sometimes,
           modelling registers that hold dead pointers across epochs. *)
        if Prng.bool rng then Sim.Regfile.set regs r_work Capability.null;
        if Capability.equal (Sim.Regfile.get regs r_recent) c then
          Sim.Regfile.set regs r_recent Capability.null;
        Objtable.kill table slot;
        if realloc then alloc_into p rt ctx rng regs table slot
      end
      else Objtable.kill table slot

let birth_op (p : Profile.t) rt ctx rng regs table =
  match Objtable.random_dead table rng with
  | None -> ()
  | Some slot -> alloc_into p rt ctx rng regs table slot

(* The SPEC trace proper, reusable by any driver: build the object table,
   then run the deterministic operation stream against [rt]. Runs on the
   calling thread; multi-tenant drivers run one per process. *)
let app_body (p : Profile.t) rt ~rng ~ops ~ops_done ctx =
  let regs = Machine.regs (Machine.self ctx) in
  let table = Objtable.create rt ctx ~slots:p.Profile.slots in
  let initial =
    int_of_float (p.Profile.target_live *. float_of_int p.Profile.slots)
  in
  for slot = 0 to initial - 1 do
    alloc_into p rt ctx rng regs table slot
  done;
  for _ = 1 to ops do
    let x = Prng.float rng 1.0 in
    if x < p.Profile.churn then churn_op p rt ctx rng regs table ~realloc:true
    else if x < p.Profile.churn +. p.Profile.kill_only then
      churn_op p rt ctx rng regs table ~realloc:false
    else if x < p.Profile.churn +. p.Profile.kill_only +. p.Profile.birth_only
    then birth_op p rt ctx rng regs table
    else access_op p ctx rng regs table;
    if p.Profile.compute_per_op > 0 then
      Machine.charge ctx p.Profile.compute_per_op;
    incr ops_done
  done

type interp = Reference | Compiled

let run ?(seed = 1) ?(ops_scale = 1.0) ?policy ?(non_temporal = false)
    ?(allocator = Runtime.Snmalloc) ?tracer ?on_runtime ?(interp = Compiled)
    ~mode (p : Profile.t) =
  let config =
    Runtime.machine_config ~heap_bytes:(Profile.heap_bytes_needed p) ~seed ()
  in
  let rt =
    Runtime.create ~config ?policy ~revoker_core:2 ~non_temporal ~allocator mode
  in
  let m = rt.Runtime.machine in
  Machine.attach_tracer m tracer;
  (match on_runtime with Some f -> f rt | None -> ());
  let rng = Prng.create ~seed:(seed * 7919) in
  let ops = int_of_float (float_of_int p.Profile.ops *. ops_scale) in
  (* Compile after [on_runtime]: chaos hooks installed there can break
     the compiler's machine-state assumptions (tagged live slots,
     size-class-predicted lengths), so such runs take the reference
     interpreter — as do load-filter barriers (CHERIoT), which may strip
     a live slot's tag at load time, a machine-dependent outcome the
     compiled draw schedule cannot represent. Both paths consume the
     same PRNG stream. *)
  let stream =
    match interp with
    | Compiled when (not (Machine.chaos_armed m)) && not (Machine.load_filter_armed m)
      ->
        Some (Opstream.compile p ~rng ~ops)
    | Compiled | Reference -> None
  in
  let wall_end = ref 0 in
  let ops_done = ref 0 in
  let app =
    Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
        (match stream with
        | Some s -> Opstream.exec s p rt ctx ~ops_done
        | None -> app_body p rt ~rng ~ops ~ops_done ctx);
        wall_end := Machine.now ctx;
        Runtime.finish rt ctx)
  in
  Machine.run m;
  let totals = Machine.totals m in
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
