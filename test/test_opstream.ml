(* Compiled op-stream equivalence tests.

   The compiled interpreter (Workload.Opstream) must be *bit-for-bit*
   equivalent to the reference per-op interpreter (Spec.app_body): same
   Result, same simulated cycles, same per-core cache and bus state,
   same trace stream — for any profile, seed, temporal-safety mode and
   allocator. The observation below captures all of it; a single
   diverging cycle anywhere in the run shifts every later event time
   and fails the comparison.

   Runs that arm chaos hooks or a load-filter barrier (cheriot) must
   fall back to the reference interpreter soundly: requesting Compiled
   still produces exactly the Reference observation, never a
   Divergence. *)

module M = Sim.Machine
module Trace = Sim.Trace
module Prng = Sim.Prng
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Profile = Workload.Profile
module Spec = Workload.Spec
module Opstream = Workload.Opstream

let check = Alcotest.(check bool)

(* ---- observation ---- *)

type observation = {
  o_result : Workload.Result.t;
  o_totals : M.totals;
  o_caches : Tagmem.Cache.stats list; (* per core *)
  o_trace_total : int;
  o_trace_dropped : int;
  o_events : (int * int * int * string * int * int) list;
}

let observe ?allocator ?on_runtime ~interp ~seed ~mode p =
  let tr = Trace.create ~capacity:65536 () in
  let mref = ref None in
  let r =
    Spec.run ~seed ?allocator ~tracer:tr ~interp
      ~on_runtime:(fun rt ->
        mref := Some rt.Runtime.machine;
        match on_runtime with Some f -> f rt | None -> ())
      ~mode p
  in
  let m = Option.get !mref in
  {
    o_result = r;
    o_totals = M.totals m;
    o_caches = List.init (M.num_cores m) (fun i -> M.cache_stats m i);
    o_trace_total = Trace.total tr;
    o_trace_dropped = Trace.dropped tr;
    o_events =
      List.map
        (fun e ->
          ( e.Trace.time,
            e.Trace.core,
            e.Trace.pid,
            Trace.kind_name e.Trace.kind,
            e.Trace.arg,
            e.Trace.arg2 ))
        (Trace.to_list tr);
  }

let equivalent ?allocator ?on_runtime ~seed ~mode p =
  let a = observe ?allocator ?on_runtime ~interp:Spec.Reference ~seed ~mode p in
  let b = observe ?allocator ?on_runtime ~interp:Spec.Compiled ~seed ~mode p in
  a = b

(* ---- fixed profiles across every strategy ---- *)

let tiny name ~ops ~slots =
  { (Profile.find name) with Profile.ops; slots }

let strategies =
  [
    ("baseline", Runtime.Baseline);
    ("paint+sync", Runtime.Safe Revoker.Paint_sync);
    ("cherivoke", Runtime.Safe Revoker.Cherivoke);
    ("cornucopia", Runtime.Safe Revoker.Cornucopia);
    ("reloaded", Runtime.Safe Revoker.Reloaded);
  ]

let test_spec_profiles_all_strategies () =
  let p = tiny "hmmer_retro" ~ops:2_500 ~slots:300 in
  List.iter
    (fun (name, mode) ->
      check (Printf.sprintf "hmmer_retro tiny, %s" name) true
        (equivalent ~seed:1 ~mode p))
    strategies

let test_spec_profile_shapes () =
  (* distinct allocation/access shapes: pointer-chase-heavy mixture
     sizes (omnetpp), huge fixed objects in a tiny table (libquantum),
     near-zero churn (bzip2, no revocation pressure) *)
  List.iter
    (fun (label, p, mode) ->
      check label true (equivalent ~seed:3 ~mode p))
    [
      ( "omnetpp tiny, reloaded",
        tiny "omnetpp" ~ops:1_500 ~slots:500,
        Runtime.Safe Revoker.Reloaded );
      ( "xalancbmk tiny, cornucopia",
        tiny "xalancbmk" ~ops:1_200 ~slots:400,
        Runtime.Safe Revoker.Cornucopia );
      ( "libquantum tiny, reloaded",
        tiny "libquantum" ~ops:600 ~slots:12,
        Runtime.Safe Revoker.Reloaded );
      ( "bzip2 tiny, baseline",
        tiny "bzip2" ~ops:500 ~slots:64,
        Runtime.Baseline );
    ]

let test_jemalloc_and_seeds () =
  (* the compiler's length predictor must hold for both allocators, and
     nothing may depend on the specific seed *)
  let p = tiny "hmmer_retro" ~ops:1_500 ~slots:200 in
  List.iter
    (fun seed ->
      check
        (Printf.sprintf "jemalloc seed %d" seed)
        true
        (equivalent ~allocator:Runtime.Jemalloc ~seed
           ~mode:(Runtime.Safe Revoker.Reloaded) p);
      check
        (Printf.sprintf "snmalloc seed %d" seed)
        true
        (equivalent ~allocator:Runtime.Snmalloc ~seed
           ~mode:(Runtime.Safe Revoker.Cornucopia) p))
    [ 2; 7; 23 ]

(* ---- across block boundaries ----

   Execution draws one block of [Opstream.block] entries at a time. These
   profiles have a prologue longer than one block, so the switch from
   warm-up allocations to ops falls inside a block, and ops spanning at
   least four more. *)

let multi_block name ~slots ~ops =
  let p = tiny name ~ops ~slots in
  let initial = int_of_float (p.Profile.target_live *. float_of_int slots) in
  check (name ^ ": prologue longer than a block") true (initial > Opstream.block);
  check (name ^ ": ops span four blocks") true (ops >= 4 * Opstream.block);
  p

let test_block_boundaries () =
  let omnetpp = multi_block "omnetpp" ~slots:2_000 ~ops:5_000 in
  List.iter
    (fun (label, mode) -> check label true (equivalent ~seed:11 ~mode omnetpp))
    [ ("omnetpp, baseline", Runtime.Baseline); ("omnetpp, reloaded", Runtime.Safe Revoker.Reloaded) ];
  check "xalancbmk, jemalloc, cornucopia" true
    (equivalent ~allocator:Runtime.Jemalloc ~seed:12 ~mode:(Runtime.Safe Revoker.Cornucopia)
       (multi_block "xalancbmk" ~slots:1_600 ~ops:4_500))

(* [compile] draws nothing: what it allocates (shadow table, block
   buffers) depends on the profile alone, not on the op count. A minor
   collection inside the measured window shifts the GC's count by a few
   words, hence the tolerance; the words are about 53,000 either way,
   where drawing the whole run up front took 4.3 M for 10^4 ops and
   116 M for 10^6. *)
let test_compile_words_flat () =
  let p = Profile.find "omnetpp" in
  let words ops =
    let rng = Prng.create ~seed:1 in
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Opstream.compile p ~rng ~ops));
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let small = words 10_000 in
  Alcotest.(check (float 64.0)) "omnetpp: words for 10^6 ops = for 10^4" small (words 1_000_000)

(* A stream owns its PRNG and shadow table, so it runs once, and only
   with the profile it was compiled from. *)
let test_exec_contract () =
  let p = tiny "hmmer_retro" ~ops:200 ~slots:32 in
  let s = Opstream.compile p ~rng:(Prng.create ~seed:1) ~ops:200 in
  let config =
    Runtime.machine_config ~heap_bytes:(Profile.heap_bytes_needed p) ~seed:1 ()
  in
  let rt = Runtime.create ~config Runtime.Baseline in
  let m = rt.Runtime.machine in
  let rejected f = match f () with () -> false | exception Invalid_argument _ -> true in
  let other_profile = ref false and second_run = ref false and ops = ref 0 in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         other_profile :=
           rejected (fun () -> Opstream.exec s { p with Profile.ops = 200 } rt ctx ~ops_done:ops);
         Opstream.exec s p rt ctx ~ops_done:ops;
         second_run := rejected (fun () -> Opstream.exec s p rt ctx ~ops_done:ops);
         Runtime.finish rt ctx));
  M.run m;
  check "another profile rejected" true !other_profile;
  Alcotest.(check int) "ops done" 200 !ops;
  check "second exec rejected" true !second_run

(* ---- fallbacks ---- *)

let test_cheriot_falls_back () =
  (* cheriot's load filter can strip live tags, which the compiled
     schedule cannot represent: requesting Compiled must transparently
     run the reference loop (hmmer_nph3 at this scale is a known
     tag-stripping case), not raise Divergence *)
  let p = tiny "hmmer_nph3" ~ops:25_000 ~slots:6_300 in
  check "cheriot equivalence via fallback" true
    (equivalent ~seed:1 ~mode:(Runtime.Safe Revoker.Cheriot_filter) p)

let test_chaos_armed_falls_back () =
  (* an armed chaos hook (here: a tag-read hook that corrupts every
     512th read) flips the machine to reference interpretation *)
  let p = tiny "hmmer_retro" ~ops:1_200 ~slots:200 in
  let on_runtime rt =
    let n = ref 0 in
    M.set_tag_read_hook rt.Runtime.machine
      (Some
         (fun ~pa:_ ->
           incr n;
           !n mod 512 = 0))
  in
  check "chaos-armed equivalence via fallback" true
    (equivalent ~on_runtime ~seed:5 ~mode:(Runtime.Safe Revoker.Reloaded) p)

(* ---- random profiles ---- *)

let size_dist_gen =
  QCheck.Gen.(
    let fixed = map (fun n -> Profile.Fixed (16 + n)) (int_bound 4080) in
    let uniform =
      map2
        (fun lo span -> Profile.Uniform (16 + lo, 16 + lo + span))
        (int_bound 1024) (int_bound 2048)
    in
    let arm = oneof [ fixed; uniform ] in
    let mixture =
      let* n = int_range 2 3 in
      let* arms =
        list_size (return n)
          (pair (map (fun w -> 0.1 +. (float_of_int w /. 10.0)) (int_bound 30)) arm)
      in
      return (Profile.Mixture arms)
    in
    oneof [ fixed; uniform; mixture ])

let profile_gen =
  QCheck.Gen.(
    let* slots = int_range 8 300 in
    let* target_live = map (fun n -> float_of_int n /. 100.0) (int_range 10 100) in
    let* size = size_dist_gen in
    let* ops = int_range 200 1_500 in
    let* churn = map (fun n -> float_of_int n /. 100.0) (int_bound 40) in
    let* kill_only = map (fun n -> float_of_int n /. 100.0) (int_bound 10) in
    let* birth_only = map (fun n -> float_of_int n /. 100.0) (int_bound 10) in
    let* ptr_density = map (fun n -> float_of_int n /. 100.0) (int_bound 60) in
    let* reads_per_op = int_bound 6 in
    let* writes_per_op = int_bound 4 in
    let* chase_depth = int_bound 4 in
    let* hot_fraction = map (fun n -> float_of_int n /. 100.0) (int_bound 50) in
    let* hot_weight = map (fun n -> float_of_int n /. 100.0) (int_bound 100) in
    let* compute_per_op = int_bound 500 in
    return
      (Profile.make ~name:"random" ~slots ~target_live ~size ~ops ~churn
         ~kill_only ~birth_only ~ptr_density ~reads_per_op ~writes_per_op
         ~chase_depth ~hot_fraction ~hot_weight ~compute_per_op
         ~engages_revocation:true ()))

let case_gen =
  QCheck.Gen.(
    let* p = profile_gen in
    let* mode = oneofl (List.map snd strategies) in
    let* seed = int_range 1 1000 in
    return (p, mode, seed))

let case_arb =
  QCheck.make
    ~print:(fun ((p : Profile.t), mode, seed) ->
      Printf.sprintf
        "seed=%d mode=%s slots=%d live=%.2f ops=%d churn=%.2f kill=%.2f \
         birth=%.2f ptr=%.2f r=%d w=%d chase=%d hot=%.2f/%.2f compute=%d \
         mean_size=%.0f"
        seed (Runtime.mode_name mode) p.Profile.slots p.Profile.target_live
        p.Profile.ops p.Profile.churn p.Profile.kill_only p.Profile.birth_only
        p.Profile.ptr_density p.Profile.reads_per_op p.Profile.writes_per_op
        p.Profile.chase_depth p.Profile.hot_fraction p.Profile.hot_weight
        p.Profile.compute_per_op (Profile.mean_size p))
    case_gen

let prop_random_profiles =
  QCheck.Test.make ~name:"compiled == reference on random profiles" ~count:15
    case_arb (fun (p, mode, seed) -> equivalent ~seed ~mode p)

(* ---- mod_hilo ---- *)

let prop_mod_hilo =
  QCheck.Test.make ~name:"mod_hilo matches Prng.int's reduction" ~count:2000
    QCheck.(pair int64 (int_range 1 max_int))
    (fun (raw, n) ->
      (* clamp n into Prng.int's domain and x into the raw-draw range *)
      let n = 1 + (n mod ((1 lsl 31) - 1)) in
      let x = Int64.logand raw Int64.max_int in
      let hi = Int64.to_int (Int64.shift_right_logical x 31) in
      let lo = Int64.to_int (Int64.logand x 0x7FFF_FFFFL) in
      Opstream.mod_hilo hi lo n = Int64.to_int (Int64.rem x (Int64.of_int n)))

let () =
  Alcotest.run "opstream"
    [
      ( "equivalence",
        [
          Alcotest.test_case "spec profiles x strategies" `Quick
            test_spec_profiles_all_strategies;
          Alcotest.test_case "profile shapes" `Quick test_spec_profile_shapes;
          Alcotest.test_case "allocators and seeds" `Quick
            test_jemalloc_and_seeds;
          Alcotest.test_case "across block boundaries" `Quick test_block_boundaries;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_random_profiles ] );
      ( "fallback",
        [
          Alcotest.test_case "cheriot load filter" `Quick
            test_cheriot_falls_back;
          Alcotest.test_case "chaos hooks" `Quick test_chaos_armed_falls_back;
        ] );
      ( "kernels", List.map QCheck_alcotest.to_alcotest [ prop_mod_hilo ] );
      ( "memory", [ Alcotest.test_case "compile words flat in ops" `Quick test_compile_words_flat ] );
      ( "contract", [ Alcotest.test_case "exec runs once, on its profile" `Quick test_exec_contract ] );
    ]
