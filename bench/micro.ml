(* Bechamel microbenchmarks of the core primitives: how fast the
   simulator itself executes the operations every figure is built from.
   These measure HOST-side nanoseconds (OCaml execution), not simulated
   cycles — useful for keeping the harness usable at scale. *)

open Bechamel
open Toolkit

module M = Sim.Machine
module Cap = Cheri.Capability

(* A persistent rig reused across samples. The context is captured from a
   finished thread and reused with an unbounded quantum, so no operation
   ever needs to yield: every benchmarked primitive is non-blocking. *)
let rig =
  lazy
    (let config =
       {
         M.default_config with
         heap_bytes = 8 lsl 20;
         mem_bytes = 32 lsl 20;
         quantum = max_int;
       }
     in
     let m = M.create config in
     let alloc = Alloc.Allocator.create m in
     let rm = Ccr.Revmap.create m in
     let holder = ref None in
     ignore
       (M.spawn m ~name:"bench" ~core:3 (fun ctx ->
            let c = Alloc.Allocator.malloc alloc ctx 4096 in
            (* plant a capability so the page sweep has work *)
            M.store_cap ctx (Cap.set_addr c (Cap.base c)) c;
            holder := Some (ctx, c)));
     M.run m;
     let ctx, c = Option.get !holder in
     (m, alloc, rm, ctx, c))

let test_cap_derive =
  Test.make ~name:"capability set_bounds+perms"
    (Staged.stage (fun () ->
         let root = Cap.root ~length:(1 lsl 32) in
         let c = Cap.set_bounds root ~base:65536 ~length:256 in
         ignore (Cap.restrict_perms c Cheri.Perms.read_write)))

let test_compress =
  Test.make ~name:"compress representable"
    (Staged.stage (fun () -> ignore (Cheri.Compress.representable ~base:123456 ~length:1234567)))

let test_mem_cap_roundtrip =
  let mem = Tagmem.Mem.create ~size:(1 lsl 16) in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Test.make ~name:"tagged memory cap store+load"
    (Staged.stage (fun () ->
         Tagmem.Mem.write_cap mem 512 c;
         ignore (Tagmem.Mem.read_cap mem 512)))

(* A freshly derived capability stored to its own granule and loaded
   back, the granules cycling through a megabyte of memory, so a stored
   value lives past the next minor collection. Memory that kept the
   stored values would promote each one; the row reports promoted words
   per pair as well as time. *)
let fresh_granules = 1 lsl 16

let fresh_pair =
  let mem = lazy (Tagmem.Mem.create ~size:(fresh_granules * 16)) in
  let root = Cap.root ~length:(1 lsl 32) in
  let i = ref 0 in
  fun () ->
    let mem = Lazy.force mem in
    let a = (!i land (fresh_granules - 1)) * 16 in
    incr i;
    Tagmem.Mem.write_cap mem a (Cap.set_bounds root ~base:(a + 65536) ~length:16);
    ignore (Sys.opaque_identity (Tagmem.Mem.read_cap mem a))

let test_fresh_cap_pair =
  Test.make ~name:"store + load a fresh capability" (Staged.stage fresh_pair)

let promoted_per_fresh_pair () =
  let n = 4 * fresh_granules in
  let promoted () =
    let _, p, _ = Gc.counters () in
    p
  in
  Gc.minor ();
  let before = promoted () in
  for _ = 1 to n do
    fresh_pair ()
  done;
  Gc.minor ();
  (promoted () -. before) /. float_of_int n

let test_cache_access =
  let cache = Tagmem.Cache.create () in
  let i = ref 0 in
  Test.make ~name:"cache access (mixed)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Tagmem.Cache.access cache ~addr:(!i * 48 land 0xfffff) ~write:(!i land 3 = 0))))

let test_sim_load =
  let _, _, _, ctx, c = Lazy.force rig in
  Test.make ~name:"simulated load_u64"
    (Staged.stage (fun () -> ignore (M.load_u64 ctx c)))

let test_prng_int =
  let rng = Sim.Prng.create ~seed:1 in
  Test.make ~name:"Prng.int draw"
    (Staged.stage (fun () -> ignore (Sim.Prng.int rng 1000)))

let test_sim_malloc_free =
  let _, alloc, _, ctx, _ = Lazy.force rig in
  Test.make ~name:"simulated malloc+free"
    (Staged.stage (fun () ->
         let c = Alloc.Allocator.malloc alloc ctx 128 in
         Alloc.Allocator.free alloc ctx c))

let test_revmap_paint =
  let _, _, rm, ctx, c = Lazy.force rig in
  Test.make ~name:"revmap paint+clear 256B"
    (Staged.stage (fun () ->
         Ccr.Revmap.paint rm ctx ~addr:(Cap.base c) ~size:256;
         Ccr.Revmap.clear rm ctx ~addr:(Cap.base c) ~size:256))

let test_sweep_page =
  let m, _, rm, ctx, c = Lazy.force rig in
  let pte =
    match Vm.Aspace.translate (M.aspace m) (Cap.base c) with
    | Some (_, pte) -> pte
    | None -> assert false
  in
  Test.make ~name:"sweep one 4KiB page"
    (Staged.stage (fun () -> ignore (Ccr.Sweep.sweep_page ctx rm ~pte)))

(* The shape of a serving session-table page: all 256 granules hold a
   capability, and every 16th points at painted (quarantined) memory, so
   the sweep probes 256 granules and revokes 16. The revoked 16 are
   stored again after each sweep (host-side, a small part of the time),
   so every sample sweeps the same page. *)
let test_sweep_dense_page =
  let m, alloc, rm, ctx, _ = Lazy.force rig in
  let d = Alloc.Allocator.malloc alloc ctx 8192 in
  let base = (Cap.base d + 4095) land lnot 4095 in
  let pa, pte =
    match Vm.Aspace.translate (M.aspace m) base with
    | Some (pa, pte) -> (pa, pte)
    | None -> assert false
  in
  let plant g =
    let va = base + (g * 16) in
    Tagmem.Mem.write_cap (M.mem m) (pa + (g * 16)) (Cap.set_bounds d ~base:va ~length:16)
  in
  for g = 0 to 255 do
    plant g;
    if g mod 16 = 0 then Ccr.Revmap.paint rm ctx ~addr:(base + (g * 16)) ~size:16
  done;
  Test.make ~name:"sweep a dense 4KiB page"
    (Staged.stage (fun () ->
         ignore (Ccr.Sweep.sweep_page ctx rm ~pte);
         for k = 0 to 15 do
           plant (k * 16)
         done))

(* One request's worth of tenant allocation: a charge and a free through
   a sealed allocator capability under a baseline runtime, whose credit
   lands inline — the ledger's unseal and entry table at steady state. *)
let test_ledger_pair =
  let config =
    { (Ccr.Runtime.machine_config ~heap_bytes:(8 lsl 20) ~seed:1 ()) with M.quantum = max_int }
  in
  let rt = Ccr.Runtime.create ~config Ccr.Runtime.Baseline in
  let m = rt.Ccr.Runtime.machine in
  let ledger = Tenancy.Ledger.create m ~phys_limit:(8 lsl 20) ~overcommit:Tenancy.Ledger.Deny () in
  let cap = Tenancy.Ledger.register ledger ~tenant:0 ~quota:(8 lsl 20) rt in
  let holder = ref None in
  ignore (M.spawn m ~name:"bench" ~core:3 (fun ctx -> holder := Some ctx));
  M.run m;
  let ctx = Option.get !holder in
  Test.make ~name:"Ledger malloc/free pair"
    (Staged.stage (fun () ->
         Tenancy.Ledger.free cap ctx (Option.get (Tenancy.Ledger.malloc cap ctx 128))))

(* One tenant-storm cell's latency set: the p99.9 read at the end of a
   cell. *)
let test_percentile =
  let rng = Sim.Prng.create ~seed:1 in
  let xs = List.init 75_000 (fun _ -> Sim.Prng.float rng 500.0) in
  Test.make ~name:"Summary.percentile, 75,000 samples"
    (Staged.stage (fun () -> ignore (Stats.Summary.percentile xs 99.9)))

let benchmarks =
  [
    test_cap_derive;
    test_compress;
    test_mem_cap_roundtrip;
    test_fresh_cap_pair;
    test_cache_access;
    test_sim_load;
    test_prng_int;
    test_sim_malloc_free;
    test_revmap_paint;
    test_sweep_page;
    test_sweep_dense_page;
    test_ledger_pair;
    test_percentile;
  ]

(* Rows that report more than time. *)
let extras =
  [
    ( test_fresh_cap_pair,
      fun () -> Printf.sprintf ", %.2f promoted words/pair" (promoted_per_fresh_pair ()) );
  ]

let run () =
  Format.printf "@.=== Microbenchmarks (host-side cost of simulator primitives) ===@.@.";
  (* No stabilization: bechamel's default compacts the heap before every
     sample until the live words settle, which leaves the quota a few
     short cold-cache runs and reads the slope 5-15x too high. *)
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          match Analyze.one (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) Instance.monotonic_clock raw with
          | exception _ -> Format.printf "  %-34s (analysis failed)@." name
          | ols -> (
              match Analyze.OLS.estimates ols with
              | Some [ est ] ->
                  let extra =
                    match List.assq_opt test extras with Some f -> f () | None -> ""
                  in
                  Format.printf "  %-34s %10.1f ns/op%s@." name est extra
              | _ -> Format.printf "  %-34s (no estimate)@." name))
        results)
    benchmarks
