(* ccr_mc: exhaustive safe-point model checker.

   Drives Sim.Machine through every inequivalent safe-point interleaving
   of the small lib/mc scenarios — 2 cores, tiny heaps, one or two
   quarantined regions — asserting the full sanitizer/race rule set plus
   the scenarios' end-state assertions on each explored schedule.
   Dynamic partial-order reduction (sleep sets + backtrack sets over the
   Dep footprint relation) prunes equivalent interleavings; each cell
   also reruns a capped naive enumeration so the reduction is measured,
   not assumed.

     dune exec bin/ccr_mc.exe -- --max-schedules 100 --jobs 4
     dune exec bin/ccr_mc.exe -- --scenarios crash-mid-sweep --strategies reloaded
     dune exec bin/ccr_mc.exe -- --mutations --repro-dir repros
     dune exec bin/ccr_mc.exe -- --replay repros/early-dequarantine.sched

   On a violation the minimal reproducing schedule is printed (and saved
   under --repro-dir) as a replayable yield trace. Exit status: 0 iff
   every explored schedule of every cell is clean (matrix mode) / every
   seeded mutation is found with a replayable schedule (--mutations). *)

open Cmdliner
module Revoker = Ccr.Revoker
module Scenario = Mc.Scenario
module Explorer = Mc.Explorer
module Schedule = Mc.Schedule
module Replay = Mc.Replay

(* ---- outcome merging (parallel subtree exploration) ---- *)

let merge (a : Explorer.outcome) (b : Explorer.outcome) =
  {
    Explorer.executions = a.Explorer.executions + b.Explorer.executions;
    max_points = max a.Explorer.max_points b.Explorer.max_points;
    backtracks = a.Explorer.backtracks + b.Explorer.backtracks;
    capped = a.Explorer.capped || b.Explorer.capped;
    diverged = a.Explorer.diverged + b.Explorer.diverged;
    min_trials = a.Explorer.min_trials + b.Explorer.min_trials;
    violation =
      (match a.Explorer.violation with
      | Some _ as v -> v
      | None -> b.Explorer.violation);
  }

(* Explore one cell: probe the first choice point, then run one explorer
   per root arm (the parallel work unit) under a split budget. The probe
   and the per-arm explorations are deterministic, and arms are merged
   in arm order, so the cell's result is identical for any --jobs. *)
let cell_tasks ~max_schedules ~depth scenario strategy =
  let roots = Explorer.root_candidates ~scenario ~strategy () in
  match roots with
  | [] | [ _ ] ->
      [
        (fun () ->
          Explorer.explore ~scenario ~strategy ~max_schedules ~depth ());
      ]
  | _ ->
      let budget =
        max 1 ((max_schedules + List.length roots - 1) / List.length roots)
      in
      List.map
        (fun root () ->
          Explorer.explore ~scenario ~strategy ~max_schedules:budget ~depth
            ~root ())
        roots

let pp_schedule_inline fmt choices =
  if choices = [] then Format.fprintf fmt "(empty: default schedule)"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
      Schedule.pp_choice fmt choices

let repro_path repro_dir scenario strategy tag =
  Printf.sprintf "%s/%s-%s%s.sched" repro_dir (Scenario.name scenario)
    (Revoker.strategy_name strategy)
    (match tag with Some t -> "-" ^ t | None -> "")

let save_repro ~repro_dir ~scenario ~strategy ~fault ~expect ~tag violation =
  match repro_dir with
  | None -> None
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = repro_path dir scenario strategy tag in
      Schedule.save path
        {
          Schedule.scenario = Scenario.name scenario;
          strategy;
          fault;
          expect;
          choices = violation.Explorer.v_schedule;
        };
      Some path

(* ---- matrix mode ---- *)

let matrix_cell_report ~naive_outcome ~repro_dir scenario strategy
    (o : Explorer.outcome) =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let ok = o.Explorer.violation = None in
  let naive_txt =
    match naive_outcome with
    | None -> ""
    | Some (n : Explorer.outcome) ->
        if n.Explorer.capped then
          Printf.sprintf "; naive > %d" (n.Explorer.executions - 1)
        else Printf.sprintf "; naive %d" n.Explorer.executions
  in
  Format.fprintf fmt "%-18s %-12s %-9s %4d schedule(s)%s (%d backtracks, depth %d%s)@."
    (Scenario.name scenario)
    (Revoker.strategy_name strategy)
    (if ok then "ok" else "VIOLATION")
    o.Explorer.executions naive_txt o.Explorer.backtracks o.Explorer.max_points
    (if o.Explorer.capped then ", capped" else "");
  (match o.Explorer.violation with
  | None -> ()
  | Some v ->
      Format.fprintf fmt "  rules: %s@." (String.concat ", " v.Explorer.v_rules);
      Format.fprintf fmt "  %s@." v.Explorer.v_detail;
      Format.fprintf fmt "  minimal schedule (%d choice(s)): %a@."
        (List.length v.Explorer.v_schedule)
        pp_schedule_inline v.Explorer.v_schedule;
      Format.fprintf fmt "%s" v.Explorer.v_report;
      (match
         save_repro ~repro_dir ~scenario ~strategy ~fault:None
           ~expect:
             (match v.Explorer.v_rules with r :: _ -> Some r | [] -> None)
           ~tag:None v
       with
      | Some path -> Format.fprintf fmt "  schedule saved to %s@." path
      | None -> ()));
  Format.pp_print_flush fmt ();
  (ok, Buffer.contents buf)

let run_matrix ~scenarios ~strategies ~max_schedules ~depth ~jobs ~skip_naive
    ~repro_dir =
  let cells =
    List.concat_map
      (fun sc -> List.map (fun st -> (sc, st)) strategies)
      scenarios
  in
  (* probe serially (cheap single executions), then flatten every cell's
     per-root-arm subtree tasks into one parallel map *)
  let tasks =
    List.map (fun (sc, st) -> cell_tasks ~max_schedules ~depth sc st) cells
  in
  let flat = List.concat tasks in
  let results = Parallel.Pool.map ~jobs (fun f -> f ()) flat in
  (* regroup results cell by cell, in order *)
  let outcomes, _ =
    List.fold_left
      (fun (acc, rest) cell_task ->
        let n = List.length cell_task in
        let rec take k l =
          if k = 0 then ([], l)
          else
            match l with
            | x :: tl ->
                let xs, rest = take (k - 1) tl in
                (x :: xs, rest)
            | [] -> assert false
        in
        let mine, rest = take n rest in
        let merged =
          match mine with x :: tl -> List.fold_left merge x tl | [] -> assert false
        in
        (merged :: acc, rest))
      ([], results) tasks
  in
  let outcomes = List.rev outcomes in
  (* capped naive enumeration for the reduction measurement: the budget
     always exceeds the DPOR count, so a capped naive run still proves
     naive > DPOR, and an uncapped one reports the exact ratio *)
  let naive_outcomes =
    if skip_naive then List.map (fun _ -> None) cells
    else
      Parallel.Pool.map ~jobs
        (fun ((sc, st), (o : Explorer.outcome)) ->
          Some
            (Explorer.explore ~scenario:sc ~strategy:st ~naive:true
               ~max_schedules:(max (o.Explorer.executions + 1) (max_schedules + 1))
               ~depth ()))
        (List.combine cells outcomes)
  in
  let reports =
    List.map2
      (fun ((sc, st), o) naive_outcome ->
        matrix_cell_report ~naive_outcome ~repro_dir sc st o)
      (List.combine cells outcomes)
      naive_outcomes
  in
  List.iter (fun (_, txt) -> print_string txt) reports;
  let total =
    List.fold_left (fun acc (o : Explorer.outcome) -> acc + o.Explorer.executions) 0 outcomes
  in
  let failed = List.length (List.filter (fun (ok, _) -> not ok) reports) in
  if failed = 0 then begin
    Format.printf "ccr_mc: %d cell(s), %d schedule(s) explored, no violations@."
      (List.length cells) total;
    0
  end
  else begin
    Format.printf "ccr_mc: %d of %d cell(s) found violations (%d schedule(s) explored)@."
      failed (List.length cells) total;
    1
  end

(* ---- seeded-mutation mode ---- *)

(* Each seeded protocol mutation must be caught under its own rule from
   a neutral schedule of the alias-rig scenario. *)
let run_mutations ~max_schedules ~depth ~jobs ~repro_dir =
  let scenario =
    match Scenario.find "free-during-sweep" with
    | Some sc -> sc
    | None -> assert false
  in
  let tasks =
    List.map
      (fun (strategy, fault, rule) () ->
        let o =
          Explorer.explore ~scenario ~strategy ~fault ~max_schedules ~depth ()
        in
        let buf = Buffer.create 256 in
        let fmt = Format.formatter_of_buffer buf in
        let ok =
          match o.Explorer.violation with
          | Some v when List.mem rule v.Explorer.v_rules -> true
          | Some _ | None -> false
        in
        (match o.Explorer.violation with
        | Some v ->
            Format.fprintf fmt "%-18s %-12s %-19s %-6s (%d schedule(s), minimal: %d choice(s), rules: %s)@."
              (Scenario.name scenario)
              (Revoker.strategy_name strategy)
              (Revoker.fault_name fault)
              (if ok then "found" else "WRONG-RULE")
              o.Explorer.executions
              (List.length v.Explorer.v_schedule)
              (String.concat ", " v.Explorer.v_rules);
            (match
               save_repro ~repro_dir ~scenario ~strategy ~fault:(Some fault)
                 ~expect:(Some rule) ~tag:(Some (Revoker.fault_name fault)) v
             with
            | Some path ->
                Format.fprintf fmt "  replayable schedule saved to %s@." path
            | None -> ())
        | None ->
            Format.fprintf fmt "%-18s %-12s %-19s MISSED (%d schedule(s), no violation)@."
              (Scenario.name scenario)
              (Revoker.strategy_name strategy)
              (Revoker.fault_name fault) o.Explorer.executions);
        Format.pp_print_flush fmt ();
        (ok, Buffer.contents buf))
      Analysis.Check.mutations
  in
  let results = Parallel.Pool.map ~jobs (fun f -> f ()) tasks in
  List.iter (fun (_, txt) -> print_string txt) results;
  let failed = List.length (List.filter (fun (ok, _) -> not ok) results) in
  if failed = 0 then begin
    Format.printf "ccr_mc: all %d seeded mutation(s) detected@."
      (List.length results);
    0
  end
  else begin
    Format.printf "ccr_mc: %d of %d seeded mutation(s) MISSED@." failed
      (List.length results);
    1
  end

(* ---- cmdliner ---- *)

let scenarios_arg =
  Arg.(
    value
    & opt
        (Cli.list (Cli.named ~what:"scenario" Scenario.find Scenario.name))
        Scenario.all
    & info [ "scenarios" ] ~docv:"NAMES"
        ~doc:"Comma-separated scenario names to explore.")

let strategies_arg =
  Arg.(
    value
    & opt (Cli.list Cli.strategy) Revoker.extended_strategies
    & info [ "strategies" ] ~docv:"NAMES"
        ~doc:"Comma-separated strategy names to explore.")

let max_schedules_arg =
  Arg.(
    value & opt Cli.pos_int 400
    & info [ "max-schedules" ] ~docv:"N"
        ~doc:"Schedule budget per scenario$(b,×)strategy cell.")

let depth_arg =
  Arg.(
    value & opt Cli.pos_int 48
    & info [ "depth" ] ~docv:"N"
        ~doc:
          "Choice-point depth bound: deeper points run under the default \
           schedule and are not backtracked.")

let jobs_arg =
  Cli.jobs
    ~doc:
      "Explore up to $(docv) subtrees concurrently on separate domains. \
       Subtrees are merged in deterministic order, so output and exit \
       status are identical for any $(docv)."

let mutations_arg =
  Arg.(
    value & flag
    & info [ "mutations" ]
        ~doc:
          "Seeded-mutation mode: arm each Revoker.inject_fault variant and \
           require the explorer to find its rule, saving a minimal \
           replayable schedule.")

let repro_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-dir" ] ~docv:"DIR"
        ~doc:"Write minimal reproducing schedules to $(docv).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Re-execute a saved schedule under the full checker set and dump \
           the trace; exit 0 iff the schedule's expectation holds.")

let skip_naive_arg =
  Arg.(
    value & flag
    & info [ "skip-naive" ]
        ~doc:"Skip the capped naive-enumeration comparison runs.")

let list_scenarios_arg =
  Arg.(
    value & flag
    & info [ "list-scenarios" ] ~doc:"List scenario names and exit.")

let main scenarios strategies max_schedules depth jobs mutations repro_dir
    replay skip_naive list_scenarios =
  if list_scenarios then begin
    List.iter
      (fun sc ->
        Format.printf "%-18s %s%s@." (Scenario.name sc) (Scenario.doc sc)
          (if Scenario.branchable sc then " [branchable chaos]" else ""))
      Scenario.all;
    0
  end
  else
    match replay with
    | Some file ->
        let r = Replay.run_file file in
        print_string r.Replay.output;
        if r.Replay.passed then 0 else 1
    | None ->
        if mutations then run_mutations ~max_schedules ~depth ~jobs ~repro_dir
        else
          run_matrix ~scenarios ~strategies ~max_schedules ~depth ~jobs
            ~skip_naive ~repro_dir

let cmd =
  Cmd.v
    (Cmd.info "ccr_mc" ~version:"1.0"
       ~doc:
         "Exhaustively model-check the revocation protocol's safe-point \
          interleavings with dynamic partial-order reduction.")
    Term.(
      const main $ scenarios_arg $ strategies_arg $ max_schedules_arg
      $ depth_arg $ jobs_arg $ mutations_arg $ repro_dir_arg $ replay_arg
      $ skip_naive_arg $ list_scenarios_arg)

let () = exit (Cmd.eval' cmd)
