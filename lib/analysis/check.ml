type t = Sanitizer.t * Race.t

let attach ?revoker m =
  if Sim.Machine.tracer m = None then begin
    let tr = Sim.Trace.create () in
    Sim.Machine.attach_tracer m (Some tr);
    Sim.Trace.set_warn_on_drop tr false
  end;
  (Sanitizer.attach ?revoker m, Race.attach m)

let attach_runtime (rt : Ccr.Runtime.t) = attach ?revoker:rt.revoker rt.machine

let attach_os os =
  let init_rt = Os.runtime (Os.init os) in
  let ((san, _) as c) = attach ?revoker:init_rt.revoker (Os.machine os) in
  Os.set_on_process os (fun p ->
      Sanitizer.register_process san ~pid:(Os.pid p) ?revoker:(Os.runtime p).revoker ());
  c

let verdict check ~drift =
  let b = Buffer.create 0 in
  let fmt = Format.formatter_of_buffer b in
  let ok =
    match check with
    | None -> true
    | Some (san, race) ->
        Sanitizer.finish san;
        if not (Sanitizer.ok san) then Sanitizer.report fmt san;
        if not (Race.ok race) then Race.report fmt race;
        Sanitizer.ok san && Race.ok race
  in
  List.iter (Format.fprintf fmt "%s@.") drift;
  Format.pp_print_flush fmt ();
  (ok && drift = [], Buffer.contents b)

(* ---- seeded mutations ---- *)

(* The strategy each seeded fault goes into and the sanitizer rule that
   must report it. The match is exhaustive, so a new fault fails the
   build until it has a row. *)
let mutation (fault : Ccr.Revoker.fault) =
  match fault with
  | Early_dequarantine -> (Ccr.Revoker.Reloaded, fault, "early-dequarantine")
  | Skip_shootdown -> (Ccr.Revoker.Cornucopia, fault, "missing-shootdown")
  | Skip_hoard_scan -> (Ccr.Revoker.Reloaded, fault, "missing-hoard-scan")

let mutations = List.map mutation Ccr.Revoker.all_faults

let alias_victim mrs hoards ctx =
  let regs = Sim.Machine.regs (Sim.Machine.self ctx) in
  let table = Ccr.Mrs.malloc mrs ctx 4096 in
  Sim.Regfile.set regs 0 table;
  let victim = Ccr.Mrs.malloc mrs ctx 128 in
  Sim.Machine.store_u64 ctx victim 0x5ec2e7L;
  Sim.Machine.store_cap ctx
    (Cheri.Capability.set_addr table (Cheri.Capability.base table))
    victim;
  Sim.Regfile.set regs 5 victim;
  ignore (Kernel.Hoard.register hoards ctx victim);
  victim

let churn_config =
  { Sim.Machine.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }

let churn_rig ?fault strategy =
  let rt = Ccr.Runtime.create ~config:churn_config (Ccr.Runtime.Safe strategy) in
  let m = rt.machine and hoards = rt.hoards in
  let rv = Option.get rt.revoker and mrs = Option.get rt.mrs in
  Sim.Machine.attach_tracer m (Some (Sim.Trace.create ()));
  let ((san, _) as checks) = attach_runtime rt in
  Ccr.Revoker.inject_fault rv fault;
  ignore
    (Sim.Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
         let victim = alias_victim mrs hoards ctx in
         let painted_at = Ccr.Epoch.counter (Ccr.Revoker.epoch rv) in
         Ccr.Mrs.free mrs ctx victim;
         let rng = Sim.Prng.create ~seed:11 in
         while not (Ccr.Epoch.is_clean (Ccr.Revoker.epoch rv) ~painted_at) do
           let c = Ccr.Mrs.malloc mrs ctx (64 + (16 * Sim.Prng.int rng 16)) in
           Sim.Machine.store_u64 ctx c 1L;
           Ccr.Mrs.free mrs ctx c
         done;
         Ccr.Mrs.finish mrs ctx));
  Sim.Machine.run m;
  Sanitizer.finish san;
  checks
