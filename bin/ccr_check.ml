(* ccr_check: protocol checking front end.

   Phase 1 runs every revocation strategy over a set of SPEC workload
   profiles with the shadow-state sanitizer and the vector-clock
   happens-before checker attached, expecting zero reports.

   Phase 2 proves the checkers are load-bearing: it re-runs a small
   churn rig with seeded protocol mutations (Revoker.inject_fault) and
   requires each mutation to be caught under its own rule.

   Exits nonzero if any clean run reports a violation, any run is
   vacuous (no revocation epochs), or any mutation goes undetected.

     dune exec bin/ccr_check.exe -- --scale 0.1
     dune exec bin/ccr_check.exe -- --profiles hmmer_retro --skip-mutations *)

open Cmdliner
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs
module Sanitizer = Analysis.Sanitizer
module Race = Analysis.Race

(* ---- phase 1: clean runs ---- *)

(* Each check is a closure returning (ok, report text): checks run on
   worker domains under --jobs, so they never print — the driver emits
   the buffered reports in check order, keeping stdout identical for
   any --jobs value. *)

let check_profile_cell ~seed ~scale name p strategy () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let checks = ref None in
  let tracer = Sim.Trace.create () in
  let result =
    Workload.Spec.run ~seed ~ops_scale:scale ~tracer
      ~on_runtime:(fun rt -> checks := Some (Analysis.Check.attach_runtime rt))
      ~mode:(Runtime.Safe strategy) p
  in
  let clean, findings = Analysis.Check.verdict !checks ~drift:[] in
  let revs =
    match result.Workload.Result.mrs with
    | Some s -> s.Mrs.revocations
    | None -> 0
  in
  let ok = clean && revs > 0 in
  Format.fprintf fmt "%-14s %-12s %-4s (%d epochs, %d events)@.%s" name
    (Revoker.strategy_name strategy)
    (if ok then "ok" else "FAIL")
    revs (Sim.Trace.total tracer) findings;
  if revs = 0 then
    Format.fprintf fmt "  no revocation epoch ran: the check is vacuous@.";
  Format.pp_print_flush fmt ();
  (ok, Buffer.contents buf)

let profile_tasks ~seed ~scale profiles =
  List.concat_map
    (fun name ->
      match Workload.Profile.find name with
      | exception Not_found ->
          [
            (fun () ->
              (false, Printf.sprintf "unknown profile %S\n" name));
          ]
      | p ->
          List.map
            (fun strategy -> check_profile_cell ~seed ~scale name p strategy)
            Revoker.extended_strategies)
    profiles

(* ---- phase 2: seeded protocol mutations ---- *)

let baseline_cell strategy () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let san, _ = Analysis.Check.churn_rig strategy in
  let ok = Sanitizer.ok san in
  Format.fprintf fmt "rig %-12s no fault            %-4s@."
    (Revoker.strategy_name strategy)
    (if ok then "ok" else "FAIL");
  if not ok then Sanitizer.report fmt san;
  Format.pp_print_flush fmt ();
  (ok, Buffer.contents buf)

let mutation_cell (strategy, fault, rule) () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let san, _ = Analysis.Check.churn_rig ~fault strategy in
  let n = Sanitizer.count san rule in
  let ok = n > 0 in
  Format.fprintf fmt "rig %-12s %-19s %-4s (%d %S report(s))@."
    (Revoker.strategy_name strategy)
    (Revoker.fault_name fault)
    (if ok then "ok" else "MISSED")
    n rule;
  if not ok then Sanitizer.report fmt san;
  Format.pp_print_flush fmt ();
  (ok, Buffer.contents buf)

let mutation_tasks () =
  List.map baseline_cell [ Revoker.Reloaded; Revoker.Cornucopia ]
  @ List.map mutation_cell Analysis.Check.mutations

(* ---- driver ---- *)

let profiles_arg =
  Arg.(
    value
    & opt (Cli.list string) [ "hmmer_retro"; "hmmer_nph3" ]
    & info [ "profiles"; "p" ] ~docv:"NAMES"
        ~doc:"Comma-separated SPEC profiles to check.")

let scale_arg =
  Arg.(
    value & opt Cli.pos_float 0.1
    & info [ "scale" ] ~doc:"Operation-count scale per profile.")

let skip_mutations_arg =
  Arg.(
    value & flag
    & info [ "skip-mutations" ] ~doc:"Only run the clean-workload checks.")

let list_rules_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ]
        ~doc:
          "Print every stable sanitizer and race rule identifier with its \
           one-line description, then exit.")

let list_rules () =
  Format.printf "sanitizer rules:@.";
  List.iter
    (fun (id, doc) -> Format.printf "  %-24s %s@." id doc)
    Sanitizer.all_rules;
  Format.printf "race rules:@.";
  List.iter
    (fun (id, doc) -> Format.printf "  %-24s %s@." id doc)
    Race.all_rules;
  0

let jobs_arg =
  Cli.jobs
    ~doc:
      "Run up to $(docv) checks concurrently on separate domains. Checks \
       are independent simulations and their reports are printed in check \
       order, so output and exit status are identical for any $(docv)."

let main profiles scale seed skip_mutations jobs rules_only =
  if rules_only then list_rules ()
  else
  let tasks =
    profile_tasks ~seed ~scale profiles
    @ (if skip_mutations then [] else mutation_tasks ())
  in
  let results = Parallel.Pool.map ~jobs (fun f -> f ()) tasks in
  List.iter (fun (_, report) -> print_string report) results;
  let all = List.map fst results in
  let failed = List.length (List.filter not all) in
  if failed = 0 then begin
    Format.printf "ccr_check: %d check(s) passed@." (List.length all);
    0
  end
  else begin
    Format.printf "ccr_check: %d of %d check(s) FAILED@." failed
      (List.length all);
    1
  end

let cmd =
  Cmd.v
    (Cmd.info "ccr_check" ~version:"1.0"
       ~doc:
         "Check the revocation protocol with the shadow-state sanitizer \
          and the happens-before race detector.")
    Term.(
      const main $ profiles_arg $ scale_arg
      $ Cli.seed ~doc:"Deterministic seed." 1
      $ skip_mutations_arg
      $ jobs_arg $ list_rules_arg)

let () = exit (Cmd.eval' cmd)
