(* Sweep kernel equivalence tests.

   The tag-bitmap kernels (Tagmem.Mem.iter_tagged_words / find_tagged /
   count_tags / popcount64) must agree with naive per-granule loops on
   arbitrary tag patterns, and Sweep.sweep_page's batched kernel must be
   *bit-for-bit* equivalent to the library's per-granule loop: same
   stats, same cycles charged, same cache state and bus traffic, same
   trace events, same tags left — on any tag pattern, painted set, page
   writability and non-temporal setting, and with an application thread
   on the same core storing to the page whenever a revocation-map probe
   yields. The per-granule loop is the one the library runs while a tag
   read hook is armed; a hook that never fires forces it and changes
   nothing else. *)

module M = Sim.Machine
module Cap = Cheri.Capability
module Mem = Tagmem.Mem
module Cache = Tagmem.Cache
module Revmap = Ccr.Revmap
module Sweep = Ccr.Sweep
module Layout = Vm.Layout
module Trace = Sim.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Mem kernel properties ---- *)

let naive_popcount n =
  let c = ref 0 in
  for b = 0 to 63 do
    if not (Int64.equal (Int64.logand (Int64.shift_right_logical n b) 1L) 0L)
    then incr c
  done;
  !c

let prop_popcount =
  QCheck.Test.make ~name:"popcount64 matches bit loop" ~count:500 QCheck.int64
    (fun n -> Mem.popcount64 n = naive_popcount n)

(* Plant a tag pattern: tagged granules get a minimal capability, the
   rest a bare word (which clears any tag). *)
let plant m pattern =
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 20)) ~base:0 ~length:16 in
  List.iteri
    (fun g tagged ->
      if tagged then Mem.write_cap m (g * 16) (Cap.set_addr c (g * 16))
      else Mem.write_u64 m (g * 16) 7L)
    pattern

let naive_count m ~lo ~hi =
  let n = ref 0 in
  Mem.iter_granules m ~lo ~hi (fun _ tagged -> if tagged then incr n);
  !n

let naive_find m ~lo ~hi =
  let found = ref None in
  (try
     Mem.iter_granules m ~lo ~hi (fun a tagged ->
         if tagged then begin
           found := Some a;
           raise Exit
         end)
   with Exit -> ());
  !found

(* Random pattern over 4 words of granules plus a random sub-range, so
   partial edge words and all-zero words are both exercised. *)
let range_gen =
  QCheck.Gen.(
    let* pattern = list_size (return 256) bool in
    let* lo = int_bound 255 in
    let* len = int_bound (256 - lo) in
    return (pattern, lo * 16, (lo * 16) + (len * 16)))

let range_arb =
  QCheck.make
    ~print:(fun (p, lo, hi) ->
      Printf.sprintf "lo=%d hi=%d tags=%s" lo hi
        (String.concat "" (List.map (fun b -> if b then "1" else "0") p)))
    range_gen

let prop_count_tags =
  QCheck.Test.make ~name:"count_tags matches per-granule loop" ~count:300
    range_arb (fun (pattern, lo, hi) ->
      let m = Mem.create ~size:4096 in
      plant m pattern;
      Mem.count_tags m ~lo ~hi = naive_count m ~lo ~hi)

let prop_find_tagged =
  QCheck.Test.make ~name:"find_tagged matches per-granule loop" ~count:300
    range_arb (fun (pattern, lo, hi) ->
      let m = Mem.create ~size:4096 in
      plant m pattern;
      Mem.find_tagged m ~lo ~hi = naive_find m ~lo ~hi)

let prop_iter_tagged_words =
  QCheck.Test.make ~name:"iter_tagged_words reconstructs the bitmap"
    ~count:300 range_arb (fun (pattern, lo, hi) ->
      let m = Mem.create ~size:4096 in
      plant m pattern;
      (* rebuild the tag set from the words and compare against the
         per-granule view over the same range *)
      let from_words = Hashtbl.create 64 in
      Mem.iter_tagged_words m ~lo ~hi (fun base word ->
          for b = 0 to 63 do
            if
              not
                (Int64.equal
                   (Int64.logand (Int64.shift_right_logical word b) 1L)
                   0L)
            then Hashtbl.replace from_words (base + (b * 16)) ()
          done);
      let ok = ref true in
      Mem.iter_granules m ~lo ~hi (fun a tagged ->
          if tagged <> Hashtbl.mem from_words a then ok := false);
      (* no bits reported outside the range *)
      Hashtbl.iter
        (fun a () -> if a < lo || a >= hi then ok := false)
        from_words;
      !ok)

let test_tag_bits_alignment () =
  let m = Mem.create ~size:4096 in
  check "aligned ok" true (Mem.tag_bits m 512 = 0);
  check "unaligned rejected" true
    (try
       ignore (Mem.tag_bits m 16);
       false
     with Invalid_argument _ -> true)

(* ---- sweep_page equivalence ---- *)

let cfg = { M.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }

let heap_base m = (M.layout m).Layout.heap_base

type observation = {
  o_stats : Sweep.stats;
  o_time : int;
  o_cache : (int * int * int * int * int); (* l1, l2, bus_r, bus_w, accesses *)
  o_tags : int; (* tags left in the frame *)
  o_events : (Trace.kind * int * int * int * int) list; (* kind, time, core, arg, arg2 *)
}

(* A small quantum: the revocation-map probe's safe point then yields to
   the racing writer, when there is one. *)
let quantum = 400

(* The racing writer: an application thread on the sweeping core. Each
   time it runs while the sweep is in progress it stores to a random
   granule of the swept page — mostly a fresh capability (based in a
   granule that may be painted), sometimes a plain word, which drops the
   tag — then yields back. *)
let writer ~seed ~started ~finished m ctx =
  let rng = Sim.Prng.create ~seed in
  let heap = Cap.root ~length:(1 lsl 32) in
  while not !finished do
    if !started then begin
      let va = heap_base m + (Sim.Prng.int rng 256 * 16) in
      if Sim.Prng.int rng 4 = 0 then M.store_u64_at ctx heap va 9L
      else
        let base = heap_base m + (Sim.Prng.int rng 256 * 16) in
        M.store_cap_at ctx heap va (Cap.set_bounds heap ~base ~length:16)
    end;
    M.yield ctx
  done

(* Build a machine, plant [pattern] in heap page 0 (tagged granules get
   self-referential caps; painted ones are painted in the revmap), and
   sweep that page on core 3 — through the per-granule loop when
   [granular], else through the batched kernel. With [race], a writer
   (seeded by it) shares core 3 and stores to the page during the sweep.
   Painting happens identically in both machines, so charges diverge only
   if the sweeps do. *)
let observe ?race ~pattern ~writable ~non_temporal ~granular () =
  let m = M.create { cfg with M.quantum } in
  if granular then M.set_tag_read_hook m (Some (fun ~pa:_ -> false));
  let tr = Trace.create ~capacity:65536 () in
  M.attach_tracer m (Some tr);
  let out = ref None in
  let started = ref false and finished = ref false in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         M.map ctx ~vaddr:(heap_base m) ~len:(4 * 4096) ~writable;
         let rm = Revmap.create m in
         let pa0, pte =
           match Vm.Aspace.translate (M.aspace m) (heap_base m) with
           | Some (pa, pte) -> (pa, pte)
           | None -> Alcotest.fail "unmapped"
         in
         (* plant host-side so read-only pages can be seeded too *)
         let mem = M.mem m in
         let heap = Cap.root ~length:(1 lsl 32) in
         List.iteri
           (fun g action ->
             let va = heap_base m + (g * 16) in
             match action with
             | `Untagged -> Mem.write_u64 mem (pa0 + (g * 16)) 3L
             | `Tagged | `Painted ->
                 let c = Cap.set_bounds heap ~base:va ~length:16 in
                 Mem.write_cap mem (pa0 + (g * 16)) c;
                 if action = `Painted then
                   Revmap.paint rm ctx ~addr:va ~size:16)
           pattern;
         let t0 = M.now ctx in
         started := true;
         let st = Sweep.sweep_page ~non_temporal ctx rm ~pte in
         finished := true;
         let cs = M.cache_stats m 3 in
         out :=
           Some
             {
               o_stats = st;
               o_time = M.now ctx - t0;
               o_cache =
                 ( cs.Cache.l1_hits,
                   cs.Cache.l2_hits,
                   cs.Cache.bus_reads,
                   cs.Cache.bus_writes,
                   cs.Cache.accesses );
               o_tags = Mem.count_tags mem ~lo:pa0 ~hi:(pa0 + 4096);
               o_events = [];
             }));
  Option.iter
    (fun seed -> ignore (M.spawn m ~name:"writer" ~core:3 (writer ~seed ~started ~finished m)))
    race;
  M.run m;
  let events = ref [] in
  Trace.iter tr (fun e ->
      events := (e.Trace.kind, e.Trace.time, e.Trace.core, e.Trace.arg, e.Trace.arg2) :: !events);
  { (Option.get !out) with o_events = List.rev !events }

let equivalent ?race ~pattern ~writable ~non_temporal () =
  observe ?race ~pattern ~writable ~non_temporal ~granular:true ()
  = observe ?race ~pattern ~writable ~non_temporal ~granular:false ()

let pattern_of_bools = List.map (fun (tagged, painted) ->
    if not tagged then `Untagged else if painted then `Painted else `Tagged)

let pat_gen =
  QCheck.Gen.(
    let* pairs = list_size (return 256) (pair bool bool) in
    let* writable = bool in
    let* non_temporal = bool in
    return (pattern_of_bools pairs, writable, non_temporal))

let pat_arb =
  QCheck.make
    ~print:(fun (p, w, nt) ->
      Printf.sprintf "writable=%b nt=%b pattern=%s" w nt
        (String.concat ""
           (List.map
              (function `Untagged -> "." | `Tagged -> "t" | `Painted -> "P")
              p)))
    pat_gen

let prop_sweep_equivalent =
  QCheck.Test.make ~name:"batched sweep == per-granule loop" ~count:60 pat_arb
    (fun (pattern, writable, non_temporal) ->
      equivalent ~pattern ~writable ~non_temporal ())

(* The writer needs a writable page. *)
let race_arb =
  QCheck.make
    ~print:(fun ((p, _, nt), seed) ->
      Printf.sprintf "seed=%d nt=%b pattern=%s" seed nt
        (String.concat ""
           (List.map
              (function `Untagged -> "." | `Tagged -> "t" | `Painted -> "P")
              p)))
    QCheck.Gen.(pair pat_gen (int_bound 1_000_000))

let prop_sweep_racing =
  QCheck.Test.make ~name:"batched sweep == per-granule loop under a racing writer"
    ~count:60 race_arb (fun ((pattern, _, non_temporal), seed) ->
      let granular = observe ~race:seed ~pattern ~writable:true ~non_temporal ~granular:true () in
      (* the race must happen: the writer ran during the sweep *)
      List.exists (fun (k, _, _, _, _) -> k = Trace.Context_switch) granular.o_events
      && granular
         = observe ~race:seed ~pattern ~writable:true ~non_temporal ~granular:false ())

(* deterministic edges: empty page, full page, single tags at the page,
   word and tag-read boundaries, read-only upgrade path *)
let fixed g action =
  List.init 256 (fun i -> if i = g then action else `Untagged)

let test_sweep_edges () =
  let all c = List.init 256 (fun _ -> c) in
  List.iter
    (fun (name, pattern, writable, nt) ->
      check name true (equivalent ~pattern ~writable ~non_temporal:nt ()))
    [
      ("empty page", all `Untagged, true, false);
      ("full tagged", all `Tagged, true, false);
      ("full painted", all `Painted, true, false);
      ("full painted nt", all `Painted, true, true);
      ("first granule", fixed 0 `Painted, true, false);
      ("last granule", fixed 255 `Painted, true, false);
      ("word boundary 63", fixed 63 `Painted, true, false);
      ("word boundary 64", fixed 64 `Painted, true, false);
      ("line boundary 3", fixed 3 `Tagged, true, false);
      ("ro upgrade", fixed 17 `Painted, false, false);
      ("ro upgrade nt", fixed 200 `Painted, false, true);
      ("ro no upgrade", fixed 17 `Tagged, false, false);
      ( "untagged run across granule 32",
        List.init 256 (fun i -> if i = 20 || i = 40 then `Painted else `Untagged),
        true,
        false );
      ( "granules 31 and 32",
        List.init 256 (fun i -> if i = 31 || i = 32 then `Painted else `Untagged),
        true,
        false );
      ("granules 31 and 32 nt",
        List.init 256 (fun i -> if i = 31 then `Tagged else if i = 32 then `Painted else `Untagged),
        true,
        true );
      ("lone tag in the last line", fixed 253 `Painted, true, false);
    ]

let test_sweep_counts () =
  (* sanity on one concrete pattern: the fast path itself (not just
     equality with the reference) produces the right counts *)
  let pattern =
    List.init 256 (fun i ->
        if i mod 7 = 0 then `Painted else if i mod 3 = 0 then `Tagged
        else `Untagged)
  in
  let o = observe ~pattern ~writable:true ~non_temporal:false ~granular:false () in
  let painted = List.length (List.filter (( = ) `Painted) pattern) in
  let tagged = List.length (List.filter (( <> ) `Untagged) pattern) in
  check_int "granules" 256 o.o_stats.Sweep.granules;
  check_int "tagged" tagged o.o_stats.Sweep.tagged;
  check_int "revoked" painted o.o_stats.Sweep.revoked;
  check_int "tags left" (tagged - painted) o.o_tags;
  check_int "one sweep event" 1
    (List.length (List.filter (fun (k, _, _, _, _) -> k = Trace.Page_sweep) o.o_events))

(* ---- the sweep's compare-and-clear ----

   [Revmap.test] can yield, and the application may then store a fresh
   capability to the granule being revoked. These cells once untagged
   such a live capability, which the compiled op-stream interpreter
   detects as a live slot holding an untagged capability. *)
let test_sweep_race_keeps_live_caps () =
  List.iter
    (fun (profile, strategy, seed) ->
      match
        Workload.Spec.run ~seed ~ops_scale:0.1 ~mode:(Ccr.Runtime.Safe strategy)
          (Workload.Profile.find profile)
      with
      | r -> check (profile ^ " completes") true (r.Workload.Result.ops_done > 0)
      | exception Workload.Opstream.Divergence msg ->
          Alcotest.failf "%s seed %d: %s" profile seed msg)
    [ ("hmmer_nph3", Ccr.Revoker.Reloaded, 5); ("hmmer_retro", Ccr.Revoker.Cornucopia, 16) ]

let () =
  Alcotest.run "sweepkernel"
    [
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [ prop_popcount; prop_count_tags; prop_find_tagged;
            prop_iter_tagged_words ]
        @ [ Alcotest.test_case "tag_bits alignment" `Quick test_tag_bits_alignment ] );
      ( "sweep",
        [
          Alcotest.test_case "edge patterns" `Quick test_sweep_edges;
          Alcotest.test_case "counts" `Quick test_sweep_counts;
          Alcotest.test_case "race keeps live capabilities" `Quick
            test_sweep_race_keeps_live_caps;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_sweep_equivalent; prop_sweep_racing ] );
    ]
