(* Simulated machine tests: scheduling, time accounting, synchronization,
   stop-the-world, memory operations, the load barrier, traps. *)

module M = Sim.Machine
module Cost = Sim.Cost
module Regfile = Sim.Regfile
module Prng = Sim.Prng
module Cap = Cheri.Capability
module Perms = Cheri.Perms

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg =
  { M.default_config with heap_bytes = 1 lsl 20; mem_bytes = 8 * (1 lsl 20) }

let mk () = M.create cfg

let heap_cap m =
  let l = M.layout m in
  Cap.restrict_perms
    (Cap.set_bounds (Cap.root ~length:(1 lsl 32)) ~base:l.Vm.Layout.heap_base
       ~length:(l.Vm.Layout.heap_limit - l.Vm.Layout.heap_base))
    Perms.all

(* ---- prng ---- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:5 and b = Prng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done;
  let c = Prng.create ~seed:6 in
  check "different seed differs" true (Prng.next a <> Prng.next c);
  (* Known answers: a change to the generator's representation must not
     move a single draw. Seed 7919 is the SPEC interpreter's stream at
     seed 1. *)
  List.iter
    (fun (seed, n1, n2, i, f, b, s1, n3) ->
      let r = Prng.create ~seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check int64) (name "next") n1 (Prng.next r);
      Alcotest.(check int64) (name "second next") n2 (Prng.next r);
      check_int (name "int 1000") i (Prng.int r 1000);
      Alcotest.(check (float 0.0)) (name "float 1.0") f (Prng.float r 1.0);
      check (name "bool") b (Prng.bool r);
      let sub = Prng.split r in
      Alcotest.(check int64) (name "split's first next") s1 (Prng.next sub);
      Alcotest.(check int64) (name "next after split") n3 (Prng.next r))
    [
      ( 1, -4616330145664149646L, 6869446166584666695L, 527, 0.95411671590662051, true,
        -8921248944152790318L, 8407459800431601144L );
      ( 7919, -1140367764737010185L, 5937570617545132895L, 209, 0.62799875585370579, true,
        -3022618905898805134L, -8240619875647452772L );
    ]

let test_prng_ranges () =
  let r = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Prng.int r 10 in
    check "int in range" true (x >= 0 && x < 10);
    let f = Prng.float r 2.0 in
    check "float in range" true (f >= 0.0 && f < 2.0);
    let e = Prng.exponential r ~mean:5.0 in
    check "exp nonneg" true (e >= 0.0);
    let p = Prng.pareto r ~scale:3.0 ~shape:1.5 in
    check "pareto >= scale" true (p >= 3.0)
  done

(* ---- basic scheduling and time ---- *)

let test_charge_advances_clock () =
  let m = mk () in
  let final = ref 0 in
  let th =
    M.spawn m ~name:"a" ~core:0 (fun ctx ->
        M.charge ctx 12345;
        final := M.now ctx)
  in
  M.run m;
  check_int "clock" 12345 !final;
  check_int "thread cpu" 12345 (M.thread_cpu_cycles th)

let test_two_cores_independent () =
  let m = mk () in
  let a_end = ref 0 and b_end = ref 0 in
  ignore (M.spawn m ~name:"a" ~core:0 (fun ctx -> M.charge ctx 100; a_end := M.now ctx));
  ignore (M.spawn m ~name:"b" ~core:1 (fun ctx -> M.charge ctx 999; b_end := M.now ctx));
  M.run m;
  check_int "a" 100 !a_end;
  check_int "b" 999 !b_end;
  check_int "global time is max" 999 (M.global_time m)

let test_same_core_context_switch () =
  let m = mk () in
  ignore (M.spawn m ~name:"a" ~core:0 (fun ctx -> M.charge ctx 100; M.yield ctx; M.charge ctx 100));
  ignore (M.spawn m ~name:"b" ~core:0 (fun ctx -> M.charge ctx 100));
  M.run m;
  let t = M.totals m in
  check "context switches happened" true (t.M.context_switches >= 1);
  (* both threads' work plus switch costs on one core *)
  check "core clock >= work" true (M.core_clock m 0 >= 300)

let test_sleep_ordering () =
  let m = mk () in
  let order = ref [] in
  ignore (M.spawn m ~name:"late" ~core:0 (fun ctx ->
      M.sleep ctx 10_000;
      order := "late" :: !order));
  ignore (M.spawn m ~name:"early" ~core:1 (fun ctx ->
      M.sleep ctx 100;
      order := "early" :: !order));
  M.run m;
  Alcotest.(check (list string)) "wake order" [ "late"; "early" ] !order

let test_condvar_wakeup_time () =
  let m = mk () in
  let woke_at = ref 0 in
  let cv = M.condvar () in
  ignore (M.spawn m ~name:"waiter" ~core:0 (fun ctx ->
      M.wait ctx cv;
      woke_at := M.now ctx));
  ignore (M.spawn m ~name:"signaler" ~core:1 (fun ctx ->
      M.charge ctx 5000;
      M.broadcast ctx cv));
  M.run m;
  check "woke no earlier than signal" true (!woke_at >= 5000)

let test_deadlock_detection () =
  let m = mk () in
  let cv = M.condvar () in
  ignore (M.spawn m ~name:"stuck" ~core:0 (fun ctx -> M.wait ctx cv));
  check "deadlock raised" true
    (try M.run m; false with M.Deadlock _ -> true)

let test_quantum_preemption_fairness () =
  let m = mk () in
  let a_done = ref 0 and b_done = ref 0 in
  (* two busy loops on one core; safe_point preempts at quantum expiry *)
  ignore (M.spawn m ~name:"a" ~core:0 (fun ctx ->
      for _ = 1 to 100 do M.charge ctx 1000; M.safe_point ctx done;
      a_done := M.now ctx));
  ignore (M.spawn m ~name:"b" ~core:0 (fun ctx ->
      for _ = 1 to 100 do M.charge ctx 1000; M.safe_point ctx done;
      b_done := M.now ctx));
  M.run m;
  (* they interleave: both finish near the end, neither runs to completion
     before the other starts *)
  let diff = abs (!a_done - !b_done) in
  check "interleaved finish" true (diff < 50_000)

(* A user thread stores in a loop while a revoker thread stops the world,
   releases it and at once requests a second stop, without yielding in
   between. The user thread, parked in the first stop, is resumed into
   the second and must park again before its next access: the second
   stop sees as many stores as the first. Run once through an accessor
   on the moved capability and once through its [_at] form, which share
   the safe point. *)
let stores_across_back_to_back_stops store =
  let m = mk () in
  let stores = ref 0 and finished = ref false in
  let seen = ref [] in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let heap = heap_cap m in
         M.map ctx ~vaddr:(Cap.base heap) ~len:4096 ~writable:true;
         while not !finished do
           store ctx heap (Cap.base heap + (16 * (!stores land 255)));
           incr stores
         done));
  ignore
    (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
         M.sleep ctx 20_000;
         let stop () = ignore (M.stop_the_world ctx (fun () -> seen := !stores :: !seen)) in
         stop ();
         stop ();
         finished := true));
  M.run m;
  match List.rev !seen with
  | [ first; second ] -> (first, second)
  | _ -> Alcotest.fail "two stops expected"

let test_resumed_into_stop_parks () =
  List.iter
    (fun (name, store) ->
      let first, second = stores_across_back_to_back_stops store in
      check (name ^ ": stores before the first stop") true (first > 0);
      check_int (name ^ ": stores between the stops") 0 (second - first))
    [
      ("store_u64, moved", fun ctx cap va -> M.store_u64 ctx (Cap.set_addr cap va) 1L);
      ("store_u64_at", fun ctx cap va -> M.store_u64_at ctx cap va 1L);
    ]

(* ---- stop-the-world ---- *)

let test_stw_pause_accounting () =
  let m = mk () in
  let app_end = ref 0 in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      for _ = 1 to 1000 do M.charge ctx 1000; M.safe_point ctx done;
      app_end := M.now ctx));
  let rep = ref None in
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      M.sleep ctx 200_000;
      let (), r = M.stop_the_world ctx (fun () -> M.charge ctx 500_000) in
      rep := Some r));
  M.run m;
  (match !rep with
  | None -> Alcotest.fail "no stw"
  | Some r ->
      check "stopped after requested" true (r.M.stopped_at >= r.M.requested_at);
      check "released after stop + work" true
        (r.M.released_at >= r.M.stopped_at + 500_000));
  check "app delayed by pause" true (!app_end >= 1_000_000 + 500_000)

let test_stw_idle_thread_parked_in_place () =
  let m = mk () in
  let waiter_woke = ref 0 in
  let cv = M.condvar () in
  ignore (M.spawn m ~name:"idle" ~core:3 (fun ctx ->
      M.wait ctx cv;
      waiter_woke := M.now ctx));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      let (), _ = M.stop_the_world ctx (fun () -> M.charge ctx 1000) in
      (* waking a thread that was parked while waiting must still work *)
      M.broadcast ctx cv));
  M.run m;
  check "woken after release" true (!waiter_woke > 0)

let test_stw_syscall_drain_cost () =
  let m = mk () in
  let rep = ref None in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      M.enter_syscall ctx ~drain:300_000;
      M.sleep ctx 1_000_000;
      M.exit_syscall ctx));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      M.sleep ctx 10_000;
      let (), r = M.stop_the_world ctx (fun () -> ()) in
      rep := Some r));
  M.run m;
  match !rep with
  | None -> Alcotest.fail "no stw"
  | Some r ->
      check "drain delays stop" true (r.M.stopped_at - r.M.requested_at >= 300_000)

let test_stw_user_thread_cannot_initiate () =
  let m = mk () in
  let raised = ref false in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      (try ignore (M.stop_the_world ctx (fun () -> ()))
       with Invalid_argument _ -> raised := true)));
  M.run m;
  check "rejected" true !raised

(* ---- memory operations ---- *)

let with_app f =
  let m = mk () in
  let result = ref None in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:(16 * 4096) ~writable:true;
      result := Some (f m ctx (heap_cap m))));
  M.run m;
  Option.get !result

let test_load_store_roundtrip () =
  let v = with_app (fun _ ctx heap ->
      let c = Cap.set_bounds heap ~base:(Cap.base heap + 64) ~length:64 in
      M.store_u64 ctx c 0xdeadbeefL;
      M.load_u64 ctx c)
  in
  Alcotest.(check int64) "roundtrip" 0xdeadbeefL v

let test_cap_store_load_roundtrip () =
  let ok = with_app (fun _ ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      let v = Cap.set_bounds heap ~base:(Cap.base heap + 4096) ~length:256 in
      M.store_cap ctx slot v;
      Cap.equal v (M.load_cap ctx slot))
  in
  check "cap roundtrip" true ok

let test_cap_store_sets_dirty () =
  let dirty = with_app (fun m ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      let before =
        match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
        | Some (_, pte) -> pte.Vm.Pte.cap_dirty
        | None -> true
      in
      M.store_cap ctx slot (Cap.set_bounds heap ~base:(Cap.base heap) ~length:16);
      let after =
        match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
        | Some (_, pte) -> pte.Vm.Pte.cap_dirty
        | None -> false
      in
      (before, after))
  in
  check "clean before" false (fst dirty);
  check "dirty after" true (snd dirty)

let test_untagged_store_no_dirty () =
  let dirty = with_app (fun m ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      M.store_cap ctx slot (Cap.clear_tag heap);
      match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
      | Some (_, pte) -> pte.Vm.Pte.cap_dirty
      | None -> true)
  in
  check "untagged store leaves page clean" false dirty

let test_capability_fault_on_oob () =
  let raised = with_app (fun _ ctx heap ->
      let c = Cap.set_bounds heap ~base:(Cap.base heap + 64) ~length:16 in
      let past = Cap.incr_addr c 16 in
      try ignore (M.load_u64 ctx past); false
      with M.Capability_fault _ -> true)
  in
  check "oob load faults" true raised

let test_capability_fault_untagged () =
  let raised = with_app (fun _ ctx heap ->
      let c = Cap.clear_tag (Cap.set_bounds heap ~base:(Cap.base heap + 64) ~length:16) in
      try ignore (M.load_u64 ctx c); false
      with M.Capability_fault _ -> true)
  in
  check "untagged load faults" true raised

let test_page_fault_unmapped () =
  let m = mk () in
  let raised = ref false in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      let c =
        Cap.set_bounds (Cap.root ~length:(1 lsl 32))
          ~base:(l.Vm.Layout.heap_base + (100 * 4096)) ~length:64
      in
      try ignore (M.load_u64 ctx c) with M.Page_fault _ -> raised := true));
  M.run m;
  check "page fault" true raised.contents

let test_store_without_capstore_page () =
  let raised = with_app (fun m ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      (match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
      | Some (_, pte) -> pte.Vm.Pte.cap_store <- false
      | None -> ());
      try M.store_cap ctx slot heap; false with M.Capability_fault _ -> true)
  in
  check "cap store to protected page faults" true raised

let test_zero_clears () =
  let ok = with_app (fun m ctx heap ->
      let c = Cap.set_bounds heap ~base:(Cap.base heap + 4096) ~length:4096 in
      let slot = Cap.set_addr c (Cap.base c + 256) in
      M.store_cap ctx slot heap;
      M.store_u64 ctx (Cap.set_addr c (Cap.base c + 8)) 99L;
      M.zero ctx c;
      let v = M.load_u64 ctx (Cap.set_addr c (Cap.base c + 8)) in
      let t = M.load_cap ctx slot in
      ignore m;
      Int64.equal v 0L && not (Cap.tag t))
  in
  check "zeroed and untagged" true ok

(* [M.zero] charges what the per-line loop it replaced charged: one
   streaming write per 64 bytes of each page piece, from the piece's
   first byte, so a block starting mid-line is charged from that line
   on. The loop is written out against a reference cache that replays
   every access the app core makes, so both start each block from the
   same cache state. The TLB is warm, so [zero] walks no page table. *)
let test_zero_charges_per_line () =
  let m = M.create { cfg with M.quantum = max_int / 2 } in
  let reference = Tagmem.Cache.create () in
  let pages = 8 in
  ignore
    (M.spawn m ~name:"app" ~core:0 (fun ctx ->
         let base = (M.layout m).Vm.Layout.heap_base in
         M.map ctx ~vaddr:base ~len:(pages * 4096) ~writable:true;
         let heap = Cap.set_bounds (heap_cap m) ~base ~length:(pages * 4096) in
         let pa va =
           match Vm.Aspace.translate (M.aspace m) va with
           | Some (pa, _) -> pa
           | None -> assert false
         in
         let store va =
           M.store_u64_at ctx heap va 1L;
           ignore (Tagmem.Cache.access reference ~addr:(pa va) ~write:true)
         in
         (* every page in the TLB, a dirty line on each *)
         for p = 0 to pages - 1 do
           store (base + (p * 4096) + 128)
         done;
         List.iter
           (fun (off, len) ->
             let c = Cap.set_bounds heap ~base:(base + off) ~length:len in
             check_int "block base" (base + off) (Cap.base c);
             check_int "block length" len (Cap.length c);
             let th = M.self ctx in
             let clock0 = M.now ctx
             and busy0 = (M.totals m).M.cpu_cycles
             and cpu0 = M.thread_cpu_cycles th in
             M.zero ctx c;
             (* the old loop *)
             let cost = ref 0 and va = ref (base + off) in
             while !va < base + off + len do
               let chunk_end = Int.min (base + off + len) ((!va lor 4095) + 1) in
               let a = ref (pa !va) in
               while !a < pa !va + (chunk_end - !va) do
                 cost := !cost + Tagmem.Cache.access_stream reference ~addr:!a ~write:true;
                 a := !a + 64
               done;
               va := chunk_end
             done;
             let name what = Printf.sprintf "zero [+%d, %d): %s" off len what in
             check_int (name "core clock") !cost (M.now ctx - clock0);
             check_int (name "busy cycles") !cost ((M.totals m).M.cpu_cycles - busy0);
             check_int (name "thread cpu") !cost (M.thread_cpu_cycles th - cpu0);
             check (name "cache stats") true (M.cache_stats m 0 = Tagmem.Cache.stats reference);
             (* dirty lines in the next block's way *)
             store (base + off + len + 64))
           [
             (* mid-line, across a page *)
             (4000, 300);
             (* a 48-byte slot at offset 48: two lines, charged one *)
             (4096 + 48, 48);
             (* mid-line, within a page *)
             ((2 * 4096) + 100, 1000);
             (* mid-line, across two page boundaries *)
             ((3 * 4096) + 4000, 4096 + 200);
             (* line-aligned, a whole page *)
             (6 * 4096, 4096);
           ]));
  M.run m

(* ---- the access check ----

   The access path checks bounds and permissions with
   [Capability.authorizes] on the authorizing capability and an explicit
   address, never building the moved capability. It must decide exactly
   as [Capability.can_*] of [Capability.set_addr cap va] does, and each
   [_at] accessor must do what its plain twin does on the moved
   capability. *)

(* A capability derived from the heap capability at [lo, lo + len) past
   the heap base, optionally derived again at [off, off + len2) inside
   that (or partly past it, which untags), with perms restricted to
   [perms], sealed or untagged on request; and an address [delta] past
   its base or its top (rounded down to a granule on request), kept
   inside the [region] bytes mapped at the heap base. *)
type access_case = {
  lo : int;
  len : int;
  narrow : (int * int) option;
  perms : int;
  sealed : bool;
  untagged : bool;
  from_top : bool;
  delta : int;
  granule_aligned : bool;
  cold_tlb : bool;
  tagged_value : bool;
}

let case_cap heap k =
  let c = Cap.set_bounds heap ~base:(Cap.base heap + k.lo) ~length:k.len in
  let c =
    match k.narrow with
    | None -> c
    | Some (off, len2) -> Cap.set_bounds c ~base:(Cap.base c + off) ~length:len2
  in
  let c = Cap.restrict_perms c (Perms.of_int k.perms) in
  let c = if k.sealed then Cap.seal c ~otype:7 else c in
  if k.untagged then Cap.clear_tag c else c

let region = 16 * 4096

let case_va heap cap k =
  let va = (if k.from_top then Cap.top cap else Cap.base cap) + k.delta in
  let va = if k.granule_aligned then va land lnot 15 else va in
  Int.max (Cap.base heap) (Int.min (Cap.base heap + region - 16) va)

let access_case_gen =
  QCheck.Gen.(
    let aligned_or_not n =
      map2 (fun a x -> if a then x land lnot 15 else x) (frequencyl [ (3, true); (1, false) ]) n
    in
    let* lo = aligned_or_not (int_range 64 32_768) in
    let* len = aligned_or_not (int_range 0 8192) in
    let* narrow =
      frequency
        [ (2, return None);
          (1, map2 (fun off len2 -> Some (off, len2)) (int_range 0 (len + 32)) (int_range 0 len)) ]
    in
    let* perms = frequency [ (1, return (Perms.to_int Perms.all)); (1, int_range 0 127) ] in
    let* sealed = frequencyl [ (7, false); (1, true) ] in
    let* untagged = frequencyl [ (7, false); (1, true) ] in
    let* from_top = bool in
    let* delta =
      frequency
        [ (3, oneofl [ -17; -16; -9; -8; -1; 0; 1; 7; 8; 9; 15; 16; 17 ]);
          (2, int_range (-40) 40);
          (2, int_range (-len) len) ]
    in
    let* granule_aligned = bool in
    let* cold_tlb = bool in
    let* tagged_value = bool in
    return
      { lo; len; narrow; perms; sealed; untagged; from_top; delta; granule_aligned; cold_tlb;
        tagged_value })

let print_access_case k =
  Printf.sprintf
    "lo=%d len=%d narrow=%s perms=%d sealed=%b untagged=%b from_top=%b delta=%d \
     granule_aligned=%b cold_tlb=%b tagged_value=%b"
    k.lo k.len
    (match k.narrow with None -> "-" | Some (o, l) -> Printf.sprintf "(%d,%d)" o l)
    k.perms k.sealed k.untagged k.from_top k.delta k.granule_aligned k.cold_tlb k.tagged_value

type outcome =
  | Done
  | Bit of bool
  | Flipped of int
  | Loaded of Cap.t
  | Fault of Cap.t * string * int

(* An accessor, what [Capability.can_*] of the moved capability says
   about it ([denied]), its [_at] form, and its twin on the moved
   capability. [touch] (width 1) and [rmw_bits_at] have no second form
   and are their own twins. *)
type accessor = {
  name : string;
  denied : Cap.t -> bool;
  at : M.ctx -> Cap.t -> int -> outcome;
  twin : M.ctx -> Cap.t -> outcome;
}

let accessors ~value =
  let moved f ctx cap va = f ctx (Cap.set_addr cap va) in
  let misaligned mc = Cap.addr mc land 15 <> 0 in
  let touch ~write ctx mc = M.touch ctx mc ~write; Done in
  let rmw ctx cap va = Flipped (M.rmw_bits_at ctx cap va ~lo:3 ~hi:40 ~set:true) in
  [
    { name = "touch (width 1, read)"; denied = (fun mc -> not (Cap.can_load ~width:1 mc));
      at = moved (touch ~write:false); twin = touch ~write:false };
    { name = "touch (width 1, write)"; denied = (fun mc -> not (Cap.can_store ~width:1 mc));
      at = moved (touch ~write:true); twin = touch ~write:true };
    { name = "touch_u64_at"; denied = (fun mc -> not (Cap.can_load ~width:8 mc));
      at = (fun ctx cap va -> M.touch_u64_at ctx cap va; Done);
      twin = (fun ctx mc -> ignore (M.load_u64 ctx mc); Done) };
    { name = "load_u64_bit"; denied = (fun mc -> not (Cap.can_load ~width:8 mc));
      at = (fun ctx cap va -> Bit (M.load_u64_bit ctx cap va ~bit:5));
      twin = (fun ctx mc -> Bit (Int64.logand (M.load_u64 ctx mc) 32L <> 0L)) };
    { name = "store_u64_at"; denied = (fun mc -> not (Cap.can_store ~width:8 mc));
      at = (fun ctx cap va -> M.store_u64_at ctx cap va 0x5a5aL; Done);
      twin = (fun ctx mc -> M.store_u64 ctx mc 0x5a5aL; Done) };
    { name = "rmw_bits_at"; denied = (fun mc -> not (Cap.can_store ~width:8 mc));
      at = rmw; twin = (fun ctx mc -> rmw ctx mc (Cap.addr mc)) };
    { name = "load_cap_at";
      denied = (fun mc -> (not (Cap.can_load ~width:16 mc)) || misaligned mc);
      at = (fun ctx cap va -> Loaded (M.load_cap_at ctx cap va));
      twin = (fun ctx mc -> Loaded (M.load_cap ctx mc)) };
    { name = "store_cap_at";
      denied =
        (fun mc ->
          (not (Cap.can_store ~width:16 mc)) || misaligned mc
          || (Cap.tag value && not (Cap.can_store_cap mc)));
      at = (fun ctx cap va -> M.store_cap_at ctx cap va value; Done);
      twin = (fun ctx mc -> M.store_cap ctx mc value; Done) };
  ]

(* Every accessor on a fresh machine, [_at] forms or twins: before each,
   the heap capability stores a tagged capability into the granule under
   the address (and, on request, the address's TLB entry is shot down).
   Returns the moved capability and each access's outcome and cycles. *)
let run_accesses k ~twins =
  let m = M.create { cfg with M.quantum = max_int / 2 } in
  let out = ref None in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let heap = heap_cap m in
         M.map ctx ~vaddr:(Cap.base heap) ~len:region ~writable:true;
         let cap = case_cap heap k in
         let va = case_va heap cap k in
         let planted = Cap.set_bounds heap ~base:(Cap.base heap) ~length:64 in
         let value = if k.tagged_value then planted else Cap.clear_tag planted in
         let run a =
           M.store_cap_at ctx heap (va land lnot 15) planted;
           if k.cold_tlb then M.tlb_shootdown ctx ~vpages:[ va / 4096 ];
           let t0 = M.now ctx in
           let o =
             try if twins then a.twin ctx (Cap.set_addr cap va) else a.at ctx cap va
             with M.Capability_fault { cap; op; vaddr } -> Fault (cap, op, vaddr)
           in
           (a, o, M.now ctx - t0)
         in
         out := Some (Cap.set_addr cap va, List.map run (accessors ~value))));
  M.run m;
  Option.get !out

(* The dereference rule, stated here apart from [Capability]: the access
   path and [Capability.can_*] share one definition of it, so the law
   holds that definition to this one. A tagged, unsealed capability
   holding every permission in [perms] authorizes [width] bytes at its
   address when they lie within its bounds. *)
let rule mc ~width perms =
  Cap.tag mc && (not (Cap.is_sealed mc)) && Perms.subset perms (Cap.perms mc)
  && Cap.base mc <= Cap.addr mc && Cap.addr mc + width <= Cap.top mc

let check_rule mc =
  let load_cap = Perms.union Perms.load Perms.load_cap
  and store_cap = Perms.union Perms.store Perms.store_cap in
  List.iter
    (fun (name, can, ruled) ->
      if can <> ruled then QCheck.Test.fail_reportf "%s: %b, the rule says %b" name can ruled)
    (List.concat_map
       (fun width ->
         [ (Printf.sprintf "can_load ~width:%d" width, Cap.can_load ~width mc,
            rule mc ~width Perms.load);
           (Printf.sprintf "can_store ~width:%d" width, Cap.can_store ~width mc,
            rule mc ~width Perms.store) ])
       [ 1; 8; 16 ]
    @ [ ("can_load_cap", Cap.can_load_cap mc, rule mc ~width:16 load_cap);
        ("can_store_cap", Cap.can_store_cap mc, rule mc ~width:16 store_cap) ])

let prop_access_check =
  QCheck.Test.make ~name:"fused access check = Capability.can_* of the moved capability"
    ~count:1000
    (QCheck.make ~print:print_access_case access_case_gen)
    (fun k ->
      let mc, at = run_accesses k ~twins:false in
      let _, twins = run_accesses k ~twins:true in
      check_rule mc;
      List.iter2
        (fun (a, o, cycles) (_, o', cycles') ->
          let faulted = match o with Fault _ -> true | _ -> false in
          if faulted <> a.denied mc then
            QCheck.Test.fail_reportf "%s: faulted=%b, but can_* denies=%b" a.name faulted
              (a.denied mc);
          (match o with
          | Loaded v when Cap.tag v <> Cap.can_load_cap mc ->
              QCheck.Test.fail_reportf "%s: loaded tag %b, can_load_cap %b" a.name (Cap.tag v)
                (Cap.can_load_cap mc)
          | _ -> ());
          if o <> o' || cycles <> cycles' then
            QCheck.Test.fail_reportf "%s: differs from its twin (cycles %d vs %d)" a.name cycles
              cycles')
        at twins;
      true)

(* ---- load barrier ---- *)

let test_clg_fault_fires_and_heals () =
  let m = mk () in
  let faults_seen = ref 0 in
  let loaded = ref Cap.null in
  M.set_clg_fault_handler m
    (Some
       (fun fctx ~vaddr pte ->
         ignore vaddr;
         incr faults_seen;
         M.charge fctx 100;
         pte.Vm.Pte.clg <- Vm.Pmap.generation (Vm.Aspace.pmap (M.aspace m))));
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      let v = Cap.set_bounds heap ~base:(Cap.base heap + 2048) ~length:16 in
      M.store_cap ctx slot v;
      (* no mismatch yet *)
      ignore (M.load_cap ctx slot);
      Alcotest.(check int) "no fault while generations agree" 0 !faults_seen;
      ()));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      M.sleep ctx 1_000_000;
      let (), _ = M.stop_the_world ctx (fun () -> M.toggle_clg ctx) in
      ()));
  M.run m;
  (* second run: after toggle, app loads trap once then heal *)
  let m = mk () in
  M.set_clg_fault_handler m
    (Some
       (fun fctx ~vaddr pte ->
         ignore vaddr;
         incr faults_seen;
         M.charge fctx 100;
         pte.Vm.Pte.clg <- Vm.Pmap.generation (Vm.Aspace.pmap (M.aspace m))));
  let barrier = M.condvar () in
  let ready = ref false and toggled = ref false in
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      while not !ready do M.wait ctx barrier done;
      let (), _ = M.stop_the_world ctx (fun () -> M.toggle_clg ctx) in
      toggled := true;
      M.broadcast ctx barrier));
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      (* map and populate the page BEFORE the generation toggle: the PTE
         keeps the old generation and the next tagged load must trap *)
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      let v = Cap.set_bounds heap ~base:(Cap.base heap + 2048) ~length:16 in
      M.store_cap ctx slot v;
      ready := true;
      M.broadcast ctx barrier;
      while not !toggled do M.wait ctx barrier done;
      faults_seen := 0;
      loaded := M.load_cap ctx slot;
      Alcotest.(check int) "exactly one fault" 1 !faults_seen;
      (* self-healed: second load does not fault *)
      ignore (M.load_cap ctx slot);
      Alcotest.(check int) "healed" 1 !faults_seen));
  M.run m;
  check "load returned the capability" true (Cap.tag !loaded);
  check_int "machine counted it" 1 (M.clg_fault_count m)

let test_untagged_load_never_faults () =
  let m = mk () in
  let faults = ref 0 in
  M.set_clg_fault_handler m
    (Some (fun _ ~vaddr:_ pte -> incr faults;
            pte.Vm.Pte.clg <- Vm.Pmap.generation (Vm.Aspace.pmap (M.aspace m))));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      let (), _ = M.stop_the_world ctx (fun () -> M.toggle_clg ctx) in ()));
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      M.sleep ctx 100_000;
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      M.store_u64 ctx slot 123L;
      ignore (M.load_cap ctx slot)));
  M.run m;
  check_int "no faults for untagged granules" 0 !faults

let test_load_filter_applies () =
  let m = mk () in
  M.set_cap_load_filter m (Some (fun _ c -> Cap.clear_tag c));
  let got = ref Cap.null in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      M.store_cap ctx slot heap;
      got := M.load_cap ctx slot));
  M.run m;
  check "filter stripped tag" false (Cap.tag !got)

let test_tlb_shootdown_refill () =
  let m = mk () in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let c = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      ignore (M.load_u64 ctx c);
      let cost_before = M.now ctx in
      ignore (M.load_u64 ctx c);
      let hit_cost = M.now ctx - cost_before in
      M.tlb_shootdown ctx ~vpages:[ Cap.base c / 4096 ];
      let t0 = M.now ctx in
      ignore (M.load_u64 ctx c);
      let refill_cost = M.now ctx - t0 in
      check "refill pays the walk" true (refill_cost >= hit_cost + Cost.tlb_walk)));
  M.run m

(* ---- the access primitives and PRNG draws allocate nothing ---- *)

(* Minor words [f] allocates over [n] calls, less what the measuring
   loop itself costs. *)
let minor_words_per n f =
  let loop g =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      g ()
    done;
    Gc.minor_words () -. before
  in
  loop f -. loop ignore

(* More pages than the TLB's 256 entries: a walk over them misses on
   every access. *)
let walk_pages = 512

let test_access_zero_alloc () =
  (* a quantum longer than the run: preemption is a scheduler event, not
     part of the access; a heap with room for the walk *)
  let m = M.create { cfg with M.quantum = max_int / 2; heap_bytes = 4 lsl 20 } in
  let words = ref [] and load_words = ref nan in
  ignore
    (M.spawn m ~name:"app" ~core:0 (fun ctx ->
         let l = M.layout m in
         let base = l.Vm.Layout.heap_base in
         M.map ctx ~vaddr:base ~len:((walk_pages + 1) * 4096) ~writable:true;
         let cap = Cap.set_bounds (heap_cap m) ~base ~length:4096 in
         let walk = Cap.set_bounds (heap_cap m) ~base:(base + 4096) ~length:(walk_pages * 4096) in
         let block = Cap.set_bounds cap ~base:(base + 512) ~length:256 in
         let value = Int64.of_int (Sys.opaque_identity 0x5a5a) in
         let va = base + 64 and slot = base + 128 and word = base + 256 in
         M.store_cap_at ctx cap slot cap;
         let set = ref false and page = ref 0 in
         let rng = Prng.create ~seed:1 in
         let calls =
           [
             ("touch_u64_at", fun () -> M.touch_u64_at ctx cap va);
             ("store_u64_at", fun () -> M.store_u64_at ctx cap va value);
             ("store_cap_at", fun () -> M.store_cap_at ctx cap slot cap);
             ("load_u64_bit", fun () -> ignore (Sys.opaque_identity (M.load_u64_bit ctx cap va ~bit:3)));
             ( "rmw_bits_at",
               fun () ->
                 set := not !set;
                 ignore (Sys.opaque_identity (M.rmw_bits_at ctx cap word ~lo:5 ~hi:41 ~set:!set)) );
             ("zero of a 256-byte block", fun () -> M.zero ctx block);
             ( "store_u64_at walk, a TLB fill per store",
               fun () ->
                 page := (!page + 1) mod walk_pages;
                 M.store_u64_at ctx walk (base + 4096 + (!page * 4096) + 8) value );
             ("Prng.int", fun () -> ignore (Sys.opaque_identity (Prng.int rng 1000)));
             ("Prng.bool", fun () -> ignore (Sys.opaque_identity (Prng.bool rng)));
           ]
         in
         let load () = Sys.opaque_identity (M.load_cap_at ctx cap slot) in
         (* warm the TLB and L1 *)
         List.iter (fun (_, f) -> f ()) calls;
         check "load_cap_at reads a tagged granule" true (Cap.tag (load ()));
         words := List.map (fun (name, f) -> (name, minor_words_per 10_000 f)) calls;
         load_words := minor_words_per 10_000 (fun () -> ignore (load ()))));
  M.run m;
  check_int "nine calls measured" 9 (List.length !words);
  List.iter
    (fun (name, w) -> Alcotest.(check (float 0.0)) (name ^ ": minor words over 10,000 calls") 0.0 w)
    !words;
  (* memory holds a tagged granule's capability as words, so a load
     builds the 9-word capability it returns, and nothing else *)
  Alcotest.(check (float 0.0)) "load_cap_at: minor words per call" 9.0 (!load_words /. 10_000.);
  (* a float draw allocates only its boxed result *)
  let rng = Prng.create ~seed:1 in
  Alcotest.(check (float 0.0))
    "Prng.float: minor words per call" 2.0
    (minor_words_per 10_000 (fun () -> ignore (Sys.opaque_identity (Prng.float rng 1.0)))
    /. 10_000.)

let promoted_words () =
  let _, promoted, _ = Gc.counters () in
  promoted

(* A 16 MiB runtime whose quantum outlasts the run, so that no
   preemption lands inside a measurement. *)
let runtime_config =
  { (Ccr.Runtime.machine_config ~heap_bytes:(16 lsl 20) ~seed:1 ()) with M.quantum = max_int / 2 }

(* Storing a capability writes words into memory and keeps nothing of
   the stored value, so a minor collection after [n] stores of freshly
   derived capabilities promotes almost nothing. Memory that kept the
   stored values would promote each 9-word record. *)
let test_cap_store_promotion () =
  let n = 10_000 in
  let m = M.create { cfg with M.quantum = max_int / 2 } in
  let promoted = ref nan in
  ignore
    (M.spawn m ~name:"app" ~core:0 (fun ctx ->
         let base = (M.layout m).Vm.Layout.heap_base and len = n * 16 in
         M.map ctx ~vaddr:base ~len ~writable:true;
         let cap = Cap.set_bounds (heap_cap m) ~base ~length:len in
         Gc.minor ();
         let before = promoted_words () in
         for g = 0 to n - 1 do
           let va = base + (g * 16) in
           M.store_cap_at ctx cap va (Cap.set_bounds cap ~base:va ~length:16)
         done;
         Gc.minor ();
         promoted := promoted_words () -. before;
         let last = M.load_cap_at ctx cap (base + len - 16) in
         check "last store tagged" true (Cap.tag last);
         check_int "last store's base" (base + len - 16) (Cap.base last)));
  M.run m;
  check
    (Printf.sprintf "%.0f words promoted by %d stores: fewer than one per store" !promoted n)
    true (!promoted < float_of_int n)

(* A freed object stays in quarantine until an epoch closes, long enough
   for its bookkeeping to be promoted. The shim's fill buffer keeps each
   freed range as two ints, so a minor collection after [n] frees that
   trigger no epoch promotes almost nothing. A buffer that consed a
   tuple per free would promote 6 words per free. *)
let test_quarantine_promotion () =
  let n = 10_000 in
  let policy = Ccr.Policy.with_min Ccr.Policy.default max_int in
  let rt =
    Ccr.Runtime.create ~config:runtime_config ~policy (Ccr.Runtime.Safe Ccr.Revoker.Reloaded)
  in
  let promoted = ref nan in
  ignore
    (M.spawn rt.Ccr.Runtime.machine ~name:"app" ~core:3 (fun ctx ->
         let caps = Array.init n (fun _ -> Ccr.Runtime.malloc rt ctx 48) in
         Gc.minor ();
         let before = promoted_words () in
         Array.iter (fun c -> Ccr.Runtime.free rt ctx c) caps;
         Gc.minor ();
         promoted := promoted_words () -. before;
         check_int "no epoch" 0 (List.length (Ccr.Runtime.revoker_records rt));
         check_int "every free buffered" (n * 48)
           (Ccr.Mrs.quarantine_bytes (Option.get rt.Ccr.Runtime.mrs));
         Ccr.Runtime.finish rt ctx));
  M.run rt.Ccr.Runtime.machine;
  check
    (Printf.sprintf "%.0f words promoted by %d buffered frees: fewer than one per free" !promoted n)
    true (!promoted < float_of_int n)

(* A ledger charge is outstanding from malloc until its credit, after
   revocation. The entry table keeps it as ints, its capability as
   encoded words, so a minor collection after [n] charges promotes
   almost nothing. An entry record with its boxed capability would
   promote about 13 words per charge. *)
let test_ledger_charge_promotion () =
  let n = 10_000 in
  let rt = Ccr.Runtime.create ~config:runtime_config (Ccr.Runtime.Safe Ccr.Revoker.Reloaded) in
  let m = rt.Ccr.Runtime.machine in
  let ledger =
    Tenancy.Ledger.create m ~phys_limit:(16 lsl 20) ~overcommit:Tenancy.Ledger.Deny ()
  in
  let cap = Tenancy.Ledger.register ledger ~tenant:0 ~quota:(16 lsl 20) rt in
  let promoted = ref nan in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         Gc.minor ();
         let before = promoted_words () in
         for _ = 1 to n do
           ignore (Sys.opaque_identity (Tenancy.Ledger.malloc cap ctx 48))
         done;
         Gc.minor ();
         promoted := promoted_words () -. before;
         check_int "every charge outstanding" (n * 48)
           (Tenancy.Ledger.account_stats ledger ~tenant:0).Tenancy.Ledger.s_live;
         Ccr.Runtime.finish rt ctx));
  M.run m;
  check
    (Printf.sprintf "%.0f words promoted by %d outstanding charges: fewer than one per charge"
       !promoted n)
    true (!promoted < float_of_int n)

(* Minor words of one warm 48-byte [Runtime.malloc] + [free] pair, with
   no epoch triggered. Not zero — a [Capability.t] alone is 9 words —
   but pinned, so that a regression shows. The pins hold for the
   workspace build (dune-workspace: release profile, no -opaque,
   -inline 50). Reloaded's reads 39 under an -opaque build (--profile
   dev), where no call across modules inlines, and fails there, so it
   also guards the build setting; Baseline's reads 27 under both. *)
let malloc_free_words mode =
  let rt = Ccr.Runtime.create ~config:runtime_config mode in
  let words = ref nan in
  ignore
    (M.spawn rt.Ccr.Runtime.machine ~name:"app" ~core:3 (fun ctx ->
         let pair () = Ccr.Runtime.free rt ctx (Ccr.Runtime.malloc rt ctx 48) in
         for _ = 1 to 100 do
           pair ()
         done;
         words := minor_words_per 1000 pair /. 1000.;
         check_int "no epoch" 0 (List.length (Ccr.Runtime.revoker_records rt));
         Ccr.Runtime.finish rt ctx));
  M.run rt.Ccr.Runtime.machine;
  Float.to_int (Float.round !words)

let test_malloc_free_words () =
  check_int "baseline pair" 27 (malloc_free_words Ccr.Runtime.Baseline);
  (* the revocation-bitmap paint runs on every free *)
  check_int "reloaded pair" 35 (malloc_free_words (Ccr.Runtime.Safe Ccr.Revoker.Reloaded))

(* The same pair through a tenant's sealed allocator capability
   ([Tenancy.Ledger]): unseal, the quota charge, the entry table and,
   under Baseline, the inline credit, on top of the runtime pair. The
   capability the table decodes for [free], the [Some] of a grant and
   the trace events' optional arguments remain; a boxing table (a
   [Hashtbl] read 16 words more) or a lookup to unseal would show.
   Workspace-build values, as for [malloc_free_words]: an -opaque build
   reads 53 and 61 and fails both. *)
let ledger_pair_words mode =
  let rt = Ccr.Runtime.create ~config:runtime_config mode in
  let m = rt.Ccr.Runtime.machine in
  let ledger =
    Tenancy.Ledger.create m ~phys_limit:(16 lsl 20) ~overcommit:Tenancy.Ledger.Deny ()
  in
  let cap = Tenancy.Ledger.register ledger ~tenant:0 ~quota:(16 lsl 20) rt in
  let words = ref nan in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let pair () =
           Tenancy.Ledger.free cap ctx (Cap.base (Option.get (Tenancy.Ledger.malloc cap ctx 48)))
         in
         for _ = 1 to 100 do
           pair ()
         done;
         words := minor_words_per 1000 pair /. 1000.;
         check_int "no epoch" 0 (List.length (Ccr.Runtime.revoker_records rt));
         Ccr.Runtime.finish rt ctx));
  M.run m;
  Float.to_int (Float.round !words)

let test_ledger_pair_words () =
  check_int "baseline ledger pair" 49 (ledger_pair_words Ccr.Runtime.Baseline);
  check_int "reloaded ledger pair" 55
    (ledger_pair_words (Ccr.Runtime.Safe Ccr.Revoker.Reloaded));
  (* sampled on every served request of the tenant storm *)
  let os = Os.create ~config:cfg (Ccr.Runtime.Safe Ccr.Revoker.Reloaded) in
  Alcotest.(check (float 0.0))
    "Os.quarantine_bytes: minor words over 10,000 calls" 0.0
    (minor_words_per 10_000 (fun () -> ignore (Sys.opaque_identity (Os.quarantine_bytes os))))

(* Marginal minor words per op of the reference SPEC interpreter on
   hmmer_nph3 under Baseline: the run at ops scale 0.03 less the run at
   0.01, over the difference in ops done, so that machine set-up and the
   table's warm-up cancel. Not zero — malloc and the capability each
   tagged load decodes remain, among others — but pinned: moved
   capabilities per access (241 words) or a boxing PRNG would show. The
   pin holds for the workspace build; an -opaque build reads 58 and
   fails it. *)
let test_reference_interp_words () =
  let p = Workload.Profile.find "hmmer_nph3" in
  let run ops_scale =
    let before = Gc.minor_words () in
    let r =
      Workload.Spec.run ~interp:Workload.Spec.Reference ~ops_scale ~mode:Ccr.Runtime.Baseline p
    in
    (Gc.minor_words () -. before, r.Workload.Result.ops_done)
  in
  let w1, ops1 = run 0.01 in
  let w3, ops3 = run 0.03 in
  check_int "hmmer_nph3 words per op" 31
    (Float.to_int (Float.round ((w3 -. w1) /. float_of_int (ops3 - ops1))))

let () =
  Alcotest.run "machine"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "charge" `Quick test_charge_advances_clock;
          Alcotest.test_case "two cores" `Quick test_two_cores_independent;
          Alcotest.test_case "context switch" `Quick test_same_core_context_switch;
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "condvar wake time" `Quick test_condvar_wakeup_time;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detection;
          Alcotest.test_case "quantum fairness" `Quick test_quantum_preemption_fairness;
          Alcotest.test_case "resumed into a stop parks first" `Quick
            test_resumed_into_stop_parks;
        ] );
      ( "stw",
        [
          Alcotest.test_case "pause accounting" `Quick test_stw_pause_accounting;
          Alcotest.test_case "idle park" `Quick test_stw_idle_thread_parked_in_place;
          Alcotest.test_case "syscall drain" `Quick test_stw_syscall_drain_cost;
          Alcotest.test_case "user cannot initiate" `Quick test_stw_user_thread_cannot_initiate;
        ] );
      ( "memory",
        [
          Alcotest.test_case "load/store" `Quick test_load_store_roundtrip;
          Alcotest.test_case "cap roundtrip" `Quick test_cap_store_load_roundtrip;
          Alcotest.test_case "cap-dirty" `Quick test_cap_store_sets_dirty;
          Alcotest.test_case "untagged no dirty" `Quick test_untagged_store_no_dirty;
          Alcotest.test_case "oob fault" `Quick test_capability_fault_on_oob;
          Alcotest.test_case "untagged fault" `Quick test_capability_fault_untagged;
          Alcotest.test_case "page fault" `Quick test_page_fault_unmapped;
          Alcotest.test_case "cap_store page" `Quick test_store_without_capstore_page;
          Alcotest.test_case "zero" `Quick test_zero_clears;
          Alcotest.test_case "zero charges per line" `Quick test_zero_charges_per_line;
          Alcotest.test_case "access primitives allocate nothing" `Quick
            test_access_zero_alloc;
          Alcotest.test_case "capability stores promote nothing" `Quick
            test_cap_store_promotion;
          Alcotest.test_case "buffered frees promote nothing" `Quick
            test_quarantine_promotion;
          Alcotest.test_case "outstanding charges promote nothing" `Quick
            test_ledger_charge_promotion;
          Alcotest.test_case "malloc/free pair allocation" `Quick test_malloc_free_words;
          Alcotest.test_case "ledger pair allocation" `Quick test_ledger_pair_words;
          Alcotest.test_case "reference interpreter allocation" `Quick
            test_reference_interp_words;
        ] );
      ("access check", List.map QCheck_alcotest.to_alcotest [ prop_access_check ]);
      ( "barrier",
        [
          Alcotest.test_case "clg fault heals" `Quick test_clg_fault_fires_and_heals;
          Alcotest.test_case "untagged never faults" `Quick test_untagged_load_never_faults;
          Alcotest.test_case "load filter" `Quick test_load_filter_applies;
          Alcotest.test_case "shootdown refill" `Quick test_tlb_shootdown_refill;
        ] );
    ]
