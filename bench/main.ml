(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) plus the DESIGN.md ablations.

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- --scale 1.0 fig1 fig4
     dune exec bench/main.exe -- --list

   Figures are computed from a shared measurement campaign: each
   (workload x mode) pair simulates once per invocation. *)

let all_targets : (string * string * (Campaign.t -> unit)) list =
  [
    ("fig1", "SPEC wall-clock overheads", Figures.fig1);
    ("fig2", "SPEC CPU-time overheads", Figures.fig2);
    ("fig3", "SPEC peak-RSS ratios", Figures.fig3);
    ("fig4", "SPEC bus-traffic overheads", Figures.fig4);
    ("fig5", "pgbench time overheads", Figures.fig5);
    ("fig6", "pgbench bus overheads", Figures.fig6);
    ("fig7", "pgbench latency CDF", Figures.fig7);
    ("fig8", "gRPC QPS latency percentiles", Figures.fig8);
    ("fig9", "revocation phase times", Figures.fig9);
    ("tab1", "pgbench fixed-rate latencies", Figures.tab1);
    ("tab2", "revocation rate statistics", Figures.tab2);
    ("ablation_policy", "quarantine policy sweep (§7.2)", Figures.ablation_policy);
    ("ablation_nt", "non-temporal sweep loads (§5.6)", Figures.ablation_nt);
    ("ablation_cheriot", "load filter vs load barrier (§6.3)", Figures.ablation_cheriot);
    ("ablation_clg", "per-PTE flag vs generation bit (§4.1)", Figures.ablation_clg);
    ("ablation_multibg", "multi-threaded background sweep (§7.1)", Figures.ablation_multibg);
    ("ablation_allocator", "snmalloc vs jemalloc (footnote 23)", Figures.ablation_allocator);
    ("ablation_coloring", "memory-coloring composition (§7.3)", Figures.ablation_coloring);
    ("micro", "bechamel microbenchmarks of primitives", fun _ -> Micro.run ());
  ]

let list_targets () =
  print_endline "targets:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-18s %s\n" n d) all_targets;
  print_endline "(no targets = run everything)"

let main scale seed jobs interp json_out list targets =
  if list then begin
    list_targets ();
    0
  end
  else begin
    let chosen =
      match targets with
      | [] ->
          (* --json with no targets dumps the spec campaign without
             rendering every figure *)
          if json_out <> None then [] else List.map (fun (n, _, _) -> n) all_targets
      | l -> l
    in
    Format.printf
      "Cornucopia Reloaded reproduction harness — ops scale %.2f, heap scale 1/%.0f, seed %d, jobs %d@."
      scale Paper.heap_scale seed jobs;
    Format.printf "(shapes and orderings are the reproduced quantities; see EXPERIMENTS.md)@.";
    let c = Campaign.create ~jobs ~interp ~scale ~seed () in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun name ->
        let _, _, f = List.find (fun (n, _, _) -> n = name) all_targets in
        f c)
      chosen;
    (match json_out with
    | Some path ->
        (* one flat record per (profile x mode) run — SPEC batch
           profiles plus the interactive pgbench/grpc pair, whose
           records carry latency tails *)
        Cli.Json.write path (Campaign.json_records c);
        Format.printf "wrote %s@." path
    | None -> ());
    Format.printf "@.[harness completed in %.1fs]@." (Unix.gettimeofday () -. t0);
    0
  end

open Cmdliner

let scale_arg =
  Arg.(
    value & opt Cli.pos_float 0.5
    & info [ "scale" ] ~docv:"S" ~doc:"Operation-count scale of every workload (positive).")

let jobs_arg =
  Cli.jobs
    ~doc:
      "Run up to $(docv) cells concurrently on separate domains (default: the machine's \
       recommended domain count, capped at 16). The JSON records are identical for any \
       $(docv)."

let interp_arg =
  Arg.(
    value
    & opt
        (enum [ ("compiled", Workload.Spec.Compiled); ("reference", Workload.Spec.Reference) ])
        Workload.Spec.Compiled
    & info [ "interp" ] ~docv:"compiled|reference"
        ~doc:"SPEC interpreter; both give identical simulated results.")

let json_arg = Cli.json ~doc:"Write one JSON record per (profile x mode) cell to $(docv)."

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List the targets and exit.")

let targets_arg =
  Arg.(
    value
    & pos_all (enum (List.map (fun (n, _, _) -> (n, n)) all_targets)) []
    & info [] ~docv:"TARGET" ~doc:"Figures and tables to produce (see $(b,--list)); default all.")

let () =
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "main.exe"
             ~doc:"Regenerate the paper's evaluation figures and tables from simulation.")
          Term.(
            const main $ scale_arg $ Cli.seed ~doc:"PRNG seed of every cell." 1 $ jobs_arg $ interp_arg $ json_arg $ list_arg
            $ targets_arg)))
