(* Analysis-layer tests: the shadow-state sanitizer and the vector-clock
   happens-before checker, on the churn rig bin/ccr_check runs
   ([Analysis.Check.churn_rig]) with and without seeded protocol
   mutations, and on a rogue bitmap clear. *)

module Machine = Sim.Machine
module Cap = Cheri.Capability
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs
module Revmap = Ccr.Revmap
module Sanitizer = Analysis.Sanitizer
module Race = Analysis.Race
module Check = Analysis.Check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg =
  { Machine.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }

let test_clean_runs () =
  List.iter
    (fun strategy ->
      let san, race = Check.churn_rig strategy in
      check
        (Revoker.strategy_name strategy ^ " sanitizer clean")
        true (Sanitizer.ok san);
      check_int
        (Revoker.strategy_name strategy ^ " zero violations")
        0
        (Sanitizer.total_violations san);
      check (Revoker.strategy_name strategy ^ " race free") true (Race.ok race))
    [ Revoker.Reloaded; Revoker.Cornucopia; Revoker.Cherivoke ]

(* Each seeded mutation must be caught, and under its own rule: the
   reports are diagnoses, not a generic tripwire. *)
let test_mutation_detected (strategy, fault, rule) () =
  let san, _ = Check.churn_rig ~fault strategy in
  check "sanitizer trips" false (Sanitizer.ok san);
  check (rule ^ " reported") true (Sanitizer.count san rule > 0)

(* Every fault has exactly one row, and every row names a rule the
   sanitizer can report. *)
let test_mutation_table () =
  List.iter
    (fun fault ->
      check_int
        (Revoker.fault_name fault ^ " has one row")
        1
        (List.length (List.filter (fun (_, f, _) -> f = fault) Check.mutations)))
    Revoker.all_faults;
  List.iter
    (fun (_, _, rule) ->
      check (rule ^ " is a sanitizer rule") true
        (List.mem_assoc rule Sanitizer.all_rules))
    Check.mutations

(* A thread clearing revocation bitmap state off to the side of the
   epoch protocol is a race; the same clear ordered behind a
   stop-the-world is not. The free stays below the quarantine trigger
   so the only Unpaint racing the app's Paint is the rogue's. *)
let rogue_rig ~sync =
  let m = Machine.create cfg in
  Machine.attach_tracer m (Some (Sim.Trace.create ()));
  let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
  let rv = Revoker.create m ~strategy:Revoker.Reloaded ~core:2 () in
  let mrs = Mrs.create m ~alloc ~revoker:rv () in
  let race = Race.attach m in
  let victim = ref None in
  ignore
    (Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
         let c = Mrs.malloc mrs ctx 256 in
         Machine.store_u64 ctx c 1L;
         Mrs.free mrs ctx c;
         victim := Some (Cap.base c, Cap.length c);
         (* give the rogue a window before tearing the runtime down *)
         Machine.sleep ctx 5000;
         Mrs.finish mrs ctx));
  ignore
    (Machine.spawn m ~name:"rogue" ~core:1 ~user:false (fun ctx ->
         while !victim = None do
           Machine.sleep ctx 50
         done;
         let addr, size = Option.get !victim in
         if sync then ignore (Machine.stop_the_world ctx (fun () -> ()));
         Revmap.clear (Revoker.revmap rv) ctx ~addr ~size));
  Machine.run m;
  race

let test_rogue_clear_races () =
  let race = rogue_rig ~sync:false in
  check "rogue clear detected" false (Race.ok race);
  match Race.races race with
  | [ r ] ->
      check "rule" true (r.Race.c_rule = "unordered-clear");
      check_int "rogue core" 1 r.Race.c_core;
      check_int "painting core" 3 r.Race.c_paint_core
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_synced_clear_no_race () =
  let race = rogue_rig ~sync:true in
  check "stw-ordered clear is not a race" true (Race.ok race)

let () =
  Alcotest.run "analysis"
    [
      ( "sanitizer",
        Alcotest.test_case "clean strategies report nothing" `Slow
          test_clean_runs
        :: Alcotest.test_case "mutation table covers every fault" `Quick
             test_mutation_table
        :: List.map
             (fun ((strategy, fault, rule) as mu) ->
               Alcotest.test_case
                 (Printf.sprintf "%s + %s -> %s"
                    (Revoker.strategy_name strategy)
                    (Revoker.fault_name fault)
                    rule)
                 `Slow
                 (test_mutation_detected mu))
             Check.mutations );
      ( "race",
        [
          Alcotest.test_case "rogue bitmap clear races" `Quick
            test_rogue_clear_races;
          Alcotest.test_case "stw-ordered clear does not" `Quick
            test_synced_clear_no_race;
        ] );
    ]
