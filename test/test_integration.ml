(* Cross-strategy integration tests: semantic transparency (a correct
   program computes the same results under every temporal-safety mode)
   and whole-system behaviours that span several subsystems. *)

module M = Sim.Machine
module Cap = Cheri.Capability
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = { M.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }

(* A deterministic program that builds, mutates, and tears down a linked
   structure in simulated memory, returning a checksum of everything it
   read. Correct (no use after free), so every mode must agree. *)
let checksum_program mode =
  let rt = Runtime.create ~config:cfg mode in
  let m = rt.Runtime.machine in
  let sum = ref 0L in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let regs = M.regs (M.self ctx) in
         let rng = Sim.Prng.create ~seed:99 in
         let table = Runtime.malloc rt ctx 2048 in
         Sim.Regfile.set regs 0 table;
         let slot i = Cap.set_addr table (Cap.base table + (i * 16)) in
         let nslots = 128 in
         for i = 0 to nslots - 1 do
           let c = Runtime.malloc rt ctx (32 + (16 * Sim.Prng.int rng 20)) in
           M.store_u64 ctx c (Int64.of_int (i * 31));
           M.store_cap ctx (slot i) c
         done;
         for _ = 1 to 10_000 do
           let i = Sim.Prng.int rng nslots in
           let c = M.load_cap ctx (slot i) in
           Sim.Regfile.set regs 1 c;
           (match Sim.Prng.int rng 3 with
           | 0 ->
               (* replace *)
               let v = M.load_u64 ctx c in
               sum := Int64.add !sum v;
               Runtime.free rt ctx c;
               Sim.Regfile.set regs 1 Cap.null;
               let c' = Runtime.malloc rt ctx (32 + (16 * Sim.Prng.int rng 20)) in
               M.store_u64 ctx c' (Int64.add v 1L);
               M.store_cap ctx (slot i) c'
           | 1 ->
               (* mutate *)
               let v = M.load_u64 ctx c in
               M.store_u64 ctx c (Int64.add v 3L)
           | _ ->
               (* read *)
               sum := Int64.add !sum (M.load_u64 ctx c));
           ()
         done;
         Runtime.finish rt ctx));
  M.run m;
  !sum

let test_semantic_transparency () =
  let base = checksum_program Runtime.Baseline in
  List.iter
    (fun mode ->
      let s = checksum_program mode in
      Alcotest.(check int64)
        (Printf.sprintf "checksum under %s" (Runtime.mode_name mode))
        base s)
    [
      Runtime.Safe Revoker.Paint_sync;
      Runtime.Safe Revoker.Cherivoke;
      Runtime.Safe Revoker.Cornucopia;
      Runtime.Safe Revoker.Reloaded;
      Runtime.Safe Revoker.Cheriot_filter;
    ]

(* The revocation bitmap is empty once everything settles: every painted
   range is eventually cleared by dequarantine. *)
let test_bitmap_settles () =
  List.iter
    (fun strategy ->
      let rt = Runtime.create ~config:cfg (Runtime.Safe strategy) in
      let m = rt.Runtime.machine in
      ignore
        (M.spawn m ~name:"app" ~core:3 (fun ctx ->
             for _ = 1 to 3_000 do
               let c = Runtime.malloc rt ctx 256 in
               M.store_u64 ctx c 5L;
               Runtime.free rt ctx c
             done;
             (* drain: churn gently until nothing is left in flight *)
             (match rt.Runtime.revoker with
             | Some rv ->
                 while Revoker.in_flight rv || Revoker.queued_bytes rv > 0 do
                   M.sleep ctx 100_000
                 done
             | None -> ());
             Runtime.finish rt ctx));
      M.run m;
      match (rt.Runtime.revoker, rt.Runtime.mrs) with
      | Some rv, Some mrs ->
          let leftover = Ccr.Mrs.quarantine_bytes mrs in
          check
            (Printf.sprintf "bitmap bits match leftover quarantine (%s)"
               (Revoker.strategy_name strategy))
            true
            (Ccr.Revmap.set_bits (Revoker.revmap rv) * 16 = leftover)
      | _ -> Alcotest.fail "no revoker")
    [ Revoker.Cherivoke; Revoker.Cornucopia; Revoker.Reloaded ]

(* Kernel hoards: a capability handed to an asynchronous kernel facility
   before free must come back revoked after the epoch — the §4.4 flow. *)
let test_kernel_hoard_flow () =
  let m = M.create cfg in
  let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
  let hoards = Kernel.Hoard.create () in
  let rv = Revoker.create m ~strategy:Revoker.Reloaded ~core:2 ~hoards () in
  let mrs = Ccr.Mrs.create m ~alloc ~revoker:rv () in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let victim = Ccr.Mrs.malloc mrs ctx 128 in
         let handle = Kernel.Hoard.register hoards ctx victim in
         let painted_at = Ccr.Epoch.counter (Revoker.epoch rv) in
         Ccr.Mrs.free mrs ctx victim;
         while not (Ccr.Epoch.is_clean (Revoker.epoch rv) ~painted_at) do
           let c = Ccr.Mrs.malloc mrs ctx 512 in
           Ccr.Mrs.free mrs ctx c
         done;
         (* the kernel must never divulge an unchecked capability *)
         let back = Kernel.Hoard.retrieve hoards ctx handle in
         check "hoarded capability revoked" false (Cap.tag back);
         Ccr.Mrs.finish mrs ctx));
  M.run m

(* Off-core register files ARE kernel hoards: a thread that sleeps across
   a revocation epoch wakes with its stale registers revoked. *)
let test_sleeping_thread_registers_scanned () =
  let m = M.create cfg in
  let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
  let rv = Revoker.create m ~strategy:Revoker.Cherivoke ~core:2 () in
  let mrs = Ccr.Mrs.create m ~alloc ~revoker:rv () in
  let sleeper_saw = ref Cap.null in
  let victim_ref = ref Cap.null in
  let handoff = M.condvar () in
  ignore
    (M.spawn m ~name:"sleeper" ~core:1 (fun ctx ->
         let regs = M.regs (M.self ctx) in
         while not (Cap.tag !victim_ref) do
           M.wait ctx handoff
         done;
         Sim.Regfile.set regs 7 !victim_ref;
         (* sleep across at least one revocation epoch *)
         M.sleep ctx 2_000_000_000;
         sleeper_saw := Sim.Regfile.get regs 7));
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let victim = Ccr.Mrs.malloc mrs ctx 128 in
         victim_ref := victim;
         M.broadcast ctx handoff;
         M.yield ctx;
         let painted_at = Ccr.Epoch.counter (Revoker.epoch rv) in
         Ccr.Mrs.free mrs ctx victim;
         while not (Ccr.Epoch.is_clean (Revoker.epoch rv) ~painted_at) do
           let c = Ccr.Mrs.malloc mrs ctx 512 in
           Ccr.Mrs.free mrs ctx c
         done;
         Ccr.Mrs.finish mrs ctx));
  M.run m;
  check "sleeper's register was revoked while parked" false (Cap.tag !sleeper_saw)

(* The full temporal-safety stack over the second allocator: the shim is
   allocator-generic (Backend), so UAR must be stopped on jemalloc too. *)
let test_jemalloc_stack () =
  let rt = Runtime.create ~config:cfg ~allocator:Runtime.Jemalloc
      (Runtime.Safe Revoker.Reloaded) in
  let m = rt.Runtime.machine in
  let stopped = ref false in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let regs = M.regs (M.self ctx) in
         let victim = Runtime.malloc rt ctx 256 in
         Sim.Regfile.set regs 5 victim;
         let rv = Option.get rt.Runtime.revoker in
         let painted_at = Ccr.Epoch.counter (Revoker.epoch rv) in
         Runtime.free rt ctx victim;
         while not (Ccr.Epoch.is_clean (Revoker.epoch rv) ~painted_at) do
           let c = Runtime.malloc rt ctx 256 in
           Runtime.free rt ctx c
         done;
         let recycled = ref Cap.null in
         let tries = ref 0 in
         while (not (Cap.tag !recycled)) && !tries < 4000 do
           incr tries;
           let c = Runtime.malloc rt ctx 256 in
           if Cap.base c = Cap.base victim then recycled := c
         done;
         check "victim recycled" true (Cap.tag !recycled);
         M.store_u64 ctx !recycled 0x5ecL;
         (match M.load_u64 ctx (Sim.Regfile.get regs 5) with
         | _ -> ()
         | exception M.Capability_fault _ -> stopped := true);
         Runtime.finish rt ctx));
  M.run m;
  check "UAR stopped on jemalloc" true !stopped

(* Runtime facade sanity. *)
let test_runtime_modes () =
  check_int "five paper modes" 5 (List.length Runtime.all_modes);
  List.iter
    (fun mode ->
      let name = Runtime.mode_name mode in
      check "mode named" true (String.length name > 0);
      check "name parses back" true (Runtime.mode_of_name name = Some mode))
    Runtime.all_modes

let () =
  Alcotest.run "integration"
    [
      ( "integration",
        [
          Alcotest.test_case "semantic transparency" `Slow test_semantic_transparency;
          Alcotest.test_case "bitmap settles" `Slow test_bitmap_settles;
          Alcotest.test_case "kernel hoard flow" `Quick test_kernel_hoard_flow;
          Alcotest.test_case "sleeping registers scanned" `Quick
            test_sleeping_thread_registers_scanned;
          Alcotest.test_case "jemalloc stack" `Quick test_jemalloc_stack;
          Alcotest.test_case "runtime modes" `Quick test_runtime_modes;
        ] );
    ]
