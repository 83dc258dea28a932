(* One regeneration function per table and figure of the paper's
   evaluation, plus the ablation benches DESIGN.md calls for. Measured
   values come from the shared campaign; paper values (where the paper
   quotes them numerically) are printed alongside. *)

module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Result = Workload.Result
module Table = Stats.Table
module Summary = Stats.Summary
open Campaign

let fmt = Format.std_formatter

let section title note =
  Format.fprintf fmt "@.=== %s ===@." title;
  if note <> "" then Format.fprintf fmt "%s@." note;
  Format.fprintf fmt "@."

let paper_cell = function Some v -> Printf.sprintf "%.1f" v | None -> "-"

(* ---------- Figure 1: SPEC wall-clock overheads ---------- *)

let fig1 c =
  section "Figure 1: SPEC CPU2006 wall-clock overhead vs spatially-safe baseline (%)"
    "(bzip2 and sjeng do not engage revocation, as in the paper)";
  let tbl =
    Table.create
      ~header:
        [ "benchmark"; "paint+sync"; "cherivoke"; "cornucopia"; "reloaded";
          "paper corn."; "paper rel." ]
  in
  List.iter
    (fun name ->
      let base = (spec c ~workload:name ~mode:"baseline").Result.wall_cycles in
      let ov mode =
        overhead_pct ~test:(spec c ~workload:name ~mode).Result.wall_cycles ~base
      in
      Table.add_row tbl
        [
          name;
          Table.cell_f (ov "paint+sync");
          Table.cell_f (ov "cherivoke");
          Table.cell_f (ov "cornucopia");
          Table.cell_f (ov "reloaded");
          paper_cell (Paper.fig1_wall_overhead_pct (name, "cornucopia"));
          paper_cell (Paper.fig1_wall_overhead_pct (name, "reloaded"));
        ])
    spec_names;
  (* geomeans over the revoking set *)
  let geo mode =
    Summary.geomean
      (List.map
         (fun name ->
           let base = (spec c ~workload:name ~mode:"baseline").Result.wall_cycles in
           ratio ~test:(spec c ~workload:name ~mode).Result.wall_cycles ~base)
         revoking_names)
  in
  Table.add_row tbl
    [
      "geomean(revoking)";
      Table.cell_pct (geo "paint+sync");
      Table.cell_pct (geo "cherivoke");
      Table.cell_pct (geo "cornucopia");
      Table.cell_pct (geo "reloaded");
      "-";
      "-";
    ];
  Table.render fmt tbl

(* ---------- Figure 2: SPEC total CPU-time overheads ---------- *)

let fig2 c =
  section "Figure 2: SPEC total CPU-time overhead, all cores (%)"
    "(Cornucopia burns the most CPU; Reloaded matches or beats it; paper fig. 2)";
  let tbl =
    Table.create
      ~header:[ "benchmark"; "paint+sync"; "cherivoke"; "cornucopia"; "reloaded" ]
  in
  List.iter
    (fun name ->
      let base = (spec c ~workload:name ~mode:"baseline").Result.cpu_cycles in
      let ov mode =
        overhead_pct ~test:(spec c ~workload:name ~mode).Result.cpu_cycles ~base
      in
      Table.add_row tbl
        [
          name;
          Table.cell_f (ov "paint+sync");
          Table.cell_f (ov "cherivoke");
          Table.cell_f (ov "cornucopia");
          Table.cell_f (ov "reloaded");
        ])
    revoking_names;
  Table.render fmt tbl

(* ---------- Figure 3: peak RSS ratios ---------- *)

let fig3 c =
  section "Figure 3: peak memory footprint (RSS) ratio vs baseline"
    "(policy targets 1.33x — quarantine is 1/3 of the allocated heap; \
     libquantum/omnetpp/xalancbmk overshoot as in the paper)";
  let subset =
    [ "xalancbmk"; "omnetpp"; "astar_lakes"; "libquantum"; "gobmk_trevord";
      "hmmer_nph3"; "hmmer_retro" ]
  in
  (* sorted descending by baseline RSS, as the paper plots it *)
  let subset =
    List.sort
      (fun a b ->
        compare
          (spec c ~workload:b ~mode:"baseline").Result.peak_rss_pages
          (spec c ~workload:a ~mode:"baseline").Result.peak_rss_pages)
      subset
  in
  let tbl =
    Table.create
      ~header:
        [ "benchmark"; "base RSS KiB"; "paint+sync"; "cherivoke"; "cornucopia";
          "reloaded" ]
  in
  List.iter
    (fun name ->
      let base = (spec c ~workload:name ~mode:"baseline").Result.peak_rss_pages in
      let rat mode =
        ratio ~test:(spec c ~workload:name ~mode).Result.peak_rss_pages ~base
      in
      Table.add_row tbl
        [
          name;
          string_of_int (base * 4);
          Table.cell_f (rat "paint+sync");
          Table.cell_f (rat "cherivoke");
          Table.cell_f (rat "cornucopia");
          Table.cell_f (rat "reloaded");
        ])
    subset;
  Table.render fmt tbl

(* ---------- Figure 4: SPEC bus-traffic overheads ---------- *)

let fig4 c =
  section "Figure 4: SPEC bus-traffic overhead (%) and Reloaded/Cornucopia ratio"
    "(paper: Reloaded's traffic is median 87% of Cornucopia's)";
  let tbl =
    Table.create
      ~header:
        [ "benchmark"; "cherivoke %"; "cornucopia %"; "reloaded %"; "rel/corn";
          "paper rel/corn" ]
  in
  let ratios = ref [] in
  List.iter
    (fun name ->
      let base = (spec c ~workload:name ~mode:"baseline").Result.bus_total in
      let bus mode = (spec c ~workload:name ~mode).Result.bus_total in
      let rel_corn =
        float_of_int (bus "reloaded" - base) /. float_of_int (bus "cornucopia" - base)
      in
      ratios := rel_corn :: !ratios;
      Table.add_row tbl
        [
          name;
          Table.cell_f (overhead_pct ~test:(bus "cherivoke") ~base);
          Table.cell_f (overhead_pct ~test:(bus "cornucopia") ~base);
          Table.cell_f (overhead_pct ~test:(bus "reloaded") ~base);
          Table.cell_f rel_corn;
          (match Paper.fig4_reloaded_vs_cornucopia name with
          | Some v -> Table.cell_f v
          | None -> "-");
        ])
    revoking_names;
  Table.render fmt tbl;
  Format.fprintf fmt
    "median reloaded/cornucopia overhead-traffic ratio: %.2f (paper: %.2f)@."
    (Summary.percentile !ratios 50.0)
    Paper.fig4_median_ratio

(* ---------- Figure 5: pgbench time overheads ---------- *)

let fig5 c =
  section "Figure 5: pgbench normalized time overheads (%)"
    "(Reloaded's wall and total-CPU overheads sit below Cornucopia's; \
     server-thread CPU is nearly identical — paper fig. 5)";
  let base = interactive c ~workload:"pgbench" ~mode:"baseline" in
  let tbl =
    Table.create ~header:[ "mode"; "wall %"; "server CPU %"; "total CPU %" ]
  in
  List.iter
    (fun mode ->
      let r = interactive c ~workload:"pgbench" ~mode in
      Table.add_row tbl
        [
          mode;
          Table.cell_f (overhead_pct ~test:r.Result.wall_cycles ~base:base.Result.wall_cycles);
          Table.cell_f
            (overhead_pct ~test:r.Result.app_cpu_cycles ~base:base.Result.app_cpu_cycles);
          Table.cell_f (overhead_pct ~test:r.Result.cpu_cycles ~base:base.Result.cpu_cycles);
        ])
    (List.tl mode_names);
  Table.render fmt tbl

(* ---------- Figure 6: pgbench bus overheads ---------- *)

let fig6 c =
  section "Figure 6: pgbench normalized bus-access overheads (%)"
    "(paper: Reloaded incurs less than half Cornucopia's traffic overhead, \
     slightly increasing the application core's)";
  let base = interactive c ~workload:"pgbench" ~mode:"baseline" in
  (* each component's extra traffic expressed as a percentage of the
     BASELINE TOTAL, so the columns stack like the paper's bars *)
  let tbl =
    Table.create
      ~header:[ "mode"; "app core (pts)"; "other cores (pts)"; "total %" ]
  in
  List.iter
    (fun mode ->
      let r = interactive c ~workload:"pgbench" ~mode in
      let other (x : Result.t) = x.Result.bus_total - x.Result.bus_app_core in
      let pts delta = 100.0 *. float_of_int delta /. float_of_int base.Result.bus_total in
      Table.add_row tbl
        [
          mode;
          Table.cell_f (pts (r.Result.bus_app_core - base.Result.bus_app_core));
          Table.cell_f (pts (other r - other base));
          Table.cell_f (overhead_pct ~test:r.Result.bus_total ~base:base.Result.bus_total);
        ])
    (List.tl mode_names);
  Table.render fmt tbl

(* ---------- Figure 7: pgbench latency CDF ---------- *)

let fig7 c =
  section "Figure 7: pgbench per-transaction latency distribution"
    "(identical to ~p85; strategies separate from p90; the paper's p99-p50 \
     gaps are 27 / ~10 / 5.4 ms for CHERIvoke / Cornucopia / Reloaded — at \
     our 1/64 heap scale pauses shrink proportionally)";
  let tbl =
    Table.create
      ~header:
        [ "mode"; "p50 us"; "p85"; "p90"; "p99"; "p99.9"; "p99-p50 us";
          "paper p99-p50 ms"; "median STW us"; "paper STW ms" ]
  in
  List.iter
    (fun mode ->
      let r = interactive c ~workload:"pgbench" ~mode in
      let p = pct r in
      let stw_us =
        Sim.Cost.cycles_to_us
          (int_of_float (phase_median r.Result.phases (fun x -> x.Revoker.stw_cycles)))
      in
      let fault_us =
        Sim.Cost.cycles_to_us
          (int_of_float (phase_median r.Result.phases (fun x -> x.Revoker.fault_cycles)))
      in
      Table.add_row tbl
        [
          mode;
          Table.cell_f (p 50.0);
          Table.cell_f (p 85.0);
          Table.cell_f (p 90.0);
          Table.cell_f (p 99.0);
          Table.cell_f (p 99.9);
          Table.cell_f (p 99.0 -. p 50.0);
          paper_cell (Paper.fig7_p99_minus_median_ms mode);
          (if mode = "reloaded" then
             Printf.sprintf "%s (+%s flt)" (Table.cell_f stw_us) (Table.cell_f fault_us)
           else Table.cell_f stw_us);
          (match Paper.fig7_median_stw_ms mode with
          | Some v when v < 0.01 -> Printf.sprintf "%.2f (faults)" (v *. 1000.0)
          | Some v -> Printf.sprintf "%.1f" v
          | None -> "-");
        ])
    mode_names;
  Table.render fmt tbl;
  Format.fprintf fmt "@.";
  let curves =
    List.map
      (fun mode ->
        let r = interactive c ~workload:"pgbench" ~mode in
        (mode, Stats.Cdf.of_samples (Array.to_list r.Result.latencies_us)))
      mode_names
  in
  Stats.Cdf.render fmt curves

(* ---------- Figure 8: gRPC QPS latency percentiles ---------- *)

let fig8 c =
  section "Figure 8: gRPC QPS throughput and latency percentile ratios vs baseline"
    "(paper: QPS drops ~12.8% under either concurrent strategy; at p99 \
     Reloaded doubles latency where Cornucopia more than triples it; at \
     p99.9 both are pathological)";
  let base = interactive c ~workload:"grpc_qps" ~mode:"baseline" in
  let tbl =
    Table.create
      ~header:
        [ "mode"; "QPS"; "drop %"; "paper drop %"; "p50 x"; "p90 x"; "p95 x";
          "p99 x"; "p99.9 x"; "paper p99 x"; "paper p99.9 x" ]
  in
  List.iter
    (fun mode ->
      let r = interactive c ~workload:"grpc_qps" ~mode in
      let rx q = pct r q /. pct base q in
      Table.add_row tbl
        [
          mode;
          Printf.sprintf "%.0f" r.Result.throughput;
          Table.cell_f
            ((1.0 -. (r.Result.throughput /. base.Result.throughput)) *. 100.0);
          paper_cell (Paper.fig8_qps_drop_pct mode);
          Table.cell_f (rx 50.0);
          Table.cell_f (rx 90.0);
          Table.cell_f (rx 95.0);
          Table.cell_f (rx 99.0);
          Table.cell_f (rx 99.9);
          (match Paper.fig8_latency_ratio (mode, 99.0) with
          | Some v -> Table.cell_f v
          | None -> "-");
          (match Paper.fig8_latency_ratio (mode, 99.9) with
          | Some v -> Table.cell_f v
          | None -> "-");
        ])
    (List.filter (fun m -> m <> "baseline") mode_names);
  Table.render fmt tbl

(* ---------- Figure 9: revocation phase times ---------- *)

let fig9 c =
  section "Figure 9: revocation phase times (per-epoch medians, us)"
    "(columns per paper: CHERIvoke's single world-stopped phase; \
     Cornucopia's concurrent + world-stopped; Reloaded's world-stopped + \
     concurrent + cumulative application-thread faults)";
  let tbl =
    Table.create
      ~header:
        [ "workload"; "chv STW"; "corn conc"; "corn STW"; "rel STW"; "rel conc";
          "rel faults"; "rel max STW" ]
  in
  let phase r f =
    Sim.Cost.cycles_to_us (int_of_float (phase_median r.Result.phases f))
  in
  let row name fetch =
    let chv = fetch "cherivoke" in
    let corn = fetch "cornucopia" in
    let rel = fetch "reloaded" in
    let max_stw =
      List.fold_left
        (fun acc p -> max acc p.Revoker.stw_cycles)
        0 rel.Result.phases
    in
    Table.add_row tbl
      [
        name;
        Table.cell_f (phase chv (fun x -> x.Revoker.stw_cycles));
        Table.cell_f (phase corn (fun x -> x.Revoker.concurrent_cycles));
        Table.cell_f (phase corn (fun x -> x.Revoker.stw_cycles));
        Table.cell_f (phase rel (fun x -> x.Revoker.stw_cycles));
        Table.cell_f (phase rel (fun x -> x.Revoker.concurrent_cycles));
        Table.cell_f (phase rel (fun x -> x.Revoker.fault_cycles));
        Table.cell_f (Sim.Cost.cycles_to_us max_stw);
      ]
  in
  List.iter
    (fun name -> row name (fun mode -> spec c ~workload:name ~mode))
    revoking_names;
  row "pgbench" (fun mode -> interactive c ~workload:"pgbench" ~mode);
  row "grpc_qps" (fun mode -> interactive c ~workload:"grpc_qps" ~mode);
  Table.render fmt tbl;
  Format.fprintf fmt
    "@.(paper: Reloaded STW is tens of us single-threaded, 323 us median for \
     multi-threaded gRPC,@. three-plus orders of magnitude under Cornucopia's \
     for memory-heavy workloads)@.";
  (* boxplots of the world-stopped distributions, the paper's plot form *)
  let boxes name fetch =
    List.filter_map
      (fun (label, mode, field) ->
        let r : Result.t = fetch mode in
        let samples =
          List.map
            (fun p -> Sim.Cost.cycles_to_us (field p))
            r.Result.phases
        in
        Stats.Boxplot.of_samples ~label:(Printf.sprintf "%s %s" name label) samples)
      [
        ("chv STW ", "cherivoke", fun p -> p.Revoker.stw_cycles);
        ("corn STW", "cornucopia", fun p -> p.Revoker.stw_cycles);
        ("rel STW ", "reloaded", fun p -> p.Revoker.stw_cycles);
        ("rel flts", "reloaded", fun p -> p.Revoker.fault_cycles);
      ]
  in
  Format.fprintf fmt "@.world-stopped (and Reloaded cumulative-fault) distributions:@.@.";
  List.iter
    (fun name ->
      Stats.Boxplot.render fmt ~unit:"us"
        (boxes name (fun mode -> spec c ~workload:name ~mode));
      Format.fprintf fmt "@.")
    [ "xalancbmk"; "omnetpp" ];
  Stats.Boxplot.render fmt ~unit:"us"
    (boxes "pgbench" (fun mode -> interactive c ~workload:"pgbench" ~mode));
  Format.fprintf fmt "@.";
  Stats.Boxplot.render fmt ~unit:"us"
    (boxes "grpc_qps" (fun mode -> interactive c ~workload:"grpc_qps" ~mode))

(* ---------- Table 1: pgbench under fixed-rate schedules ---------- *)

let tab1 c =
  section "Table 1: pgbench latency percentiles under fixed-rate schedules (Reloaded)"
    "(rates chosen as the same fractions of peak throughput as the paper's \
     100/150/250 of 284 tx/s; latencies in us at 1/64 scale vs the paper's ms)";
  ensure_pgbench c;
  let unsched = interactive c ~workload:"pgbench" ~mode:"reloaded" in
  let peak = unsched.Result.throughput in
  let tbl =
    Table.create
      ~header:[ "tx/s"; "p50"; "p90"; "p95"; "p99"; "p99.9"; "paper (ms @ rate)" ]
  in
  let fractions = List.map (fun (r, _) -> r /. Paper.table1_max_rate) Paper.table1 in
  List.iter2
    (fun frac (paper_rate, paper_row) ->
      let rate = frac *. peak in
      let config =
        {
          Workload.Pgbench.transactions =
            int_of_float (4000.0 *. c.scale) |> max 1200;
          rate = Some rate;
          seed = c.seed;
        }
      in
      let r =
        Workload.Pgbench.run ~config ~mode:(Runtime.Safe Revoker.Reloaded) ()
      in
      Table.add_row tbl
        ([ Printf.sprintf "%.0f" rate ]
        @ List.map (fun q -> Table.cell_f (pct r q)) Paper.table1_percentiles
        @ [
            Printf.sprintf "%s @ %.0f/s"
              (String.concat "/" (List.map (Printf.sprintf "%.2g") paper_row))
              paper_rate;
          ]))
    fractions Paper.table1;
  Table.add_row tbl
    ([ "unscheduled" ]
    @ List.map (fun q -> Table.cell_f (pct unsched q)) Paper.table1_percentiles
    @ [
        Printf.sprintf "%s @ 284/s"
          (String.concat "/" (List.map (Printf.sprintf "%.2g") Paper.table1_unscheduled));
      ]);
  Table.render fmt tbl

(* ---------- Table 2: revocation rate statistics ---------- *)

let tab2 c =
  section "Table 2: Reloaded revocation-rate statistics"
    "(byte quantities at 1/64 of the paper's; operation counts are further \
     scaled, so F:A and revocation counts scale with run length — the \
     cross-workload ordering is the reproduced quantity)";
  let tbl =
    Table.create
      ~header:
        [ "workload"; "mean alloc KiB"; "sum freed MiB"; "F:A"; "revocations";
          "rev/sec"; "paper F:A"; "paper rev/s" ]
  in
  let add name (r : Result.t) =
    match r.Result.mrs with
    | None -> ()
    | Some st ->
        let mean_alloc =
          match st.Ccr.Mrs.live_samples with
          | [] -> 0.0
          | l -> Summary.mean (List.map float_of_int l)
        in
        let freed = float_of_int st.Ccr.Mrs.sum_freed_bytes in
        let secs = float_of_int r.Result.wall_cycles /. Sim.Cost.clock_hz in
        let paper =
          List.find_opt (fun p -> p.Paper.t2_name = name) Paper.table2
        in
        Table.add_row tbl
          [
            name;
            Printf.sprintf "%.0f" (mean_alloc /. 1024.0);
            Printf.sprintf "%.1f" (freed /. 1048576.0);
            Printf.sprintf "%.1f" (if mean_alloc > 0.0 then freed /. mean_alloc else 0.0);
            string_of_int st.Ccr.Mrs.revocations;
            Printf.sprintf "%.1f" (float_of_int st.Ccr.Mrs.revocations /. secs);
            (match paper with
            | Some p -> Printf.sprintf "%.1f" p.Paper.t2_fa
            | None -> "-");
            (match paper with
            | Some p -> Printf.sprintf "%.2f" p.Paper.t2_rev_per_sec
            | None -> "-");
          ]
  in
  List.iter
    (fun name -> add name (spec c ~workload:name ~mode:"reloaded"))
    revoking_names;
  add "pgbench" (interactive c ~workload:"pgbench" ~mode:"reloaded");
  add "grpc_qps" (interactive c ~workload:"grpc_qps" ~mode:"reloaded");
  Table.render fmt tbl

(* ---------- Ablations ---------- *)

let ablation_policy c =
  section "Ablation: quarantine policy (§7.2) — omnetpp under Reloaded"
    "(larger quarantine fractions trade memory for fewer, bigger epochs)";
  let p = Workload.Profile.find "omnetpp" in
  let base =
    Workload.Spec.run ~seed:c.seed ~ops_scale:(c.scale /. 2.0)
      ~mode:Runtime.Baseline p
  in
  let tbl =
    Table.create
      ~header:[ "fraction"; "revocations"; "wall %"; "RSS ratio"; "bus %" ]
  in
  List.iter
    (fun frac ->
      let policy = Ccr.Policy.with_fraction Ccr.Policy.default frac in
      let r =
        Workload.Spec.run ~seed:c.seed ~ops_scale:(c.scale /. 2.0) ~policy
          ~mode:(Runtime.Safe Revoker.Reloaded) p
      in
      let revs = match r.Result.mrs with Some s -> s.Ccr.Mrs.revocations | None -> 0 in
      Table.add_row tbl
        [
          Printf.sprintf "%.2f" frac;
          string_of_int revs;
          Table.cell_f
            (overhead_pct ~test:r.Result.wall_cycles ~base:base.Result.wall_cycles);
          Table.cell_f
            (ratio ~test:r.Result.peak_rss_pages ~base:base.Result.peak_rss_pages);
          Table.cell_f (overhead_pct ~test:r.Result.bus_total ~base:base.Result.bus_total);
        ])
    [ 0.10; 0.25; 0.50 ];
  Table.render fmt tbl

let ablation_nt c =
  section "Ablation: non-temporal sweep loads (§5.6) — xalancbmk"
    "(bypassing allocation on sweep reads trades revoker-side cache reuse \
     for less pollution)";
  let p = Workload.Profile.find "xalancbmk" in
  let tbl = Table.create ~header:[ "sweep loads"; "wall ms"; "cpu ms"; "bus" ] in
  List.iter
    (fun (label, nt) ->
      let r =
        Workload.Spec.run ~seed:c.seed ~ops_scale:(c.scale /. 2.0) ~non_temporal:nt
          ~mode:(Runtime.Safe Revoker.Reloaded) p
      in
      Table.add_row tbl
        [
          label;
          Table.cell_f (Result.wall_ms r);
          Table.cell_f (Sim.Cost.cycles_to_ms r.Result.cpu_cycles);
          string_of_int r.Result.bus_total;
        ])
    [ ("cached", false); ("non-temporal", true) ];
  Table.render fmt tbl

let ablation_cheriot c =
  section "Ablation: trap-based load barrier vs CHERIoT-style load filter (§6.3)"
    "(the filter needs no generations, faults, or re-scans — at the price \
     of a bitmap probe on every capability load)";
  let p = Workload.Profile.find "omnetpp" in
  let base =
    Workload.Spec.run ~seed:c.seed ~ops_scale:(c.scale /. 2.0)
      ~mode:Runtime.Baseline p
  in
  let tbl =
    Table.create
      ~header:[ "mechanism"; "wall %"; "cpu %"; "bus %"; "clg faults" ]
  in
  List.iter
    (fun strategy ->
      let r =
        Workload.Spec.run ~seed:c.seed ~ops_scale:(c.scale /. 2.0)
          ~mode:(Runtime.Safe strategy) p
      in
      Table.add_row tbl
        [
          Revoker.strategy_name strategy;
          Table.cell_f
            (overhead_pct ~test:r.Result.wall_cycles ~base:base.Result.wall_cycles);
          Table.cell_f (overhead_pct ~test:r.Result.cpu_cycles ~base:base.Result.cpu_cycles);
          Table.cell_f (overhead_pct ~test:r.Result.bus_total ~base:base.Result.bus_total);
          string_of_int r.Result.clg_faults;
        ])
    [ Revoker.Reloaded; Revoker.Cheriot_filter ];
  Table.render fmt tbl

let ablation_clg _c =
  section "Ablation: in-core generation bit vs per-PTE barrier flag (§4.1)"
    "(updating every PTE with the world stopped is what the generation \
     scheme was designed to avoid)";
  let mk flag =
    let config =
      { Sim.Machine.default_config with heap_bytes = 8 lsl 20; mem_bytes = 32 lsl 20 }
    in
    let m = Sim.Machine.create config in
    let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
    let rv =
      Revoker.create m ~strategy:Revoker.Reloaded ~core:2
        ~pte_flag_barrier:flag ()
    in
    let mrs = Ccr.Mrs.create m ~alloc ~revoker:rv () in
    ignore
      (Sim.Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
           for _ = 1 to 30_000 do
             let cp = Ccr.Mrs.malloc mrs ctx 512 in
             Sim.Machine.store_u64 ctx cp 1L;
             Ccr.Mrs.free mrs ctx cp
           done;
           Ccr.Mrs.finish mrs ctx));
    Sim.Machine.run m;
    let stws = List.map (fun r -> float_of_int r.Revoker.stw_cycles) (Revoker.records rv) in
    Summary.percentile stws 50.0
  in
  let tbl = Table.create ~header:[ "epoch start"; "median STW us" ] in
  Table.add_row tbl
    [ "toggle in-core generation"; Table.cell_f (Sim.Cost.cycles_to_us (int_of_float (mk false))) ];
  Table.add_row tbl
    [ "update every PTE (flag)"; Table.cell_f (Sim.Cost.cycles_to_us (int_of_float (mk true))) ];
  Table.render fmt tbl

let ablation_multibg c =
  section "Ablation: multi-threaded background revocation (§7.1) — xalancbmk"
    "(helpers on the idle cores shorten the concurrent phase)";
  let p = Workload.Profile.find "xalancbmk" in
  let tbl =
    Table.create ~header:[ "background threads"; "median conc ms"; "wall ms" ]
  in
  List.iter
    (fun n ->
      (* drive the revoker directly so we can pass background_threads *)
      let m =
        Sim.Machine.create
          (Ccr.Runtime.machine_config
             ~heap_bytes:(Workload.Profile.heap_bytes_needed p)
             ~seed:c.seed ())
      in
      let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
      let rv =
        Revoker.create m ~strategy:Revoker.Reloaded ~core:2
          ~background_threads:n ()
      in
      let mrs = Ccr.Mrs.create m ~alloc ~revoker:rv () in
      let wall = ref 0 in
      ignore
        (Sim.Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
             let rng = Sim.Prng.create ~seed:77 in
             let table = Ccr.Mrs.malloc mrs ctx 4096 in
             let slot i =
               Cheri.Capability.set_addr table (Cheri.Capability.base table + (i * 16))
             in
             (* object bodies hold capabilities: their pages are sweep
                targets, so the background phase has real work to split *)
             let fresh () =
               let cp = Ccr.Mrs.malloc mrs ctx 512 in
               Sim.Machine.store_cap ctx
                 (Cheri.Capability.set_addr cp (Cheri.Capability.base cp))
                 table;
               cp
             in
             for i = 0 to 255 do
               Sim.Machine.store_cap ctx (slot i) (fresh ())
             done;
             for _ = 1 to int_of_float (60_000.0 *. c.scale) do
               let i = Sim.Prng.int rng 256 in
               let cp = Sim.Machine.load_cap ctx (slot i) in
               if Cheri.Capability.tag cp then Ccr.Mrs.free mrs ctx cp;
               Sim.Machine.store_cap ctx (slot i) (fresh ())
             done;
             wall := Sim.Machine.now ctx;
             Ccr.Mrs.finish mrs ctx));
      Sim.Machine.run m;
      let conc =
        match Revoker.records rv with
        | [] -> 0.0
        | rs ->
            Summary.percentile
              (List.map (fun x -> float_of_int x.Revoker.concurrent_cycles) rs)
              50.0
      in
      Table.add_row tbl
        [
          string_of_int n;
          Table.cell_f (Sim.Cost.cycles_to_ms (int_of_float conc));
          Table.cell_f (Sim.Cost.cycles_to_ms !wall);
        ])
    [ 1; 2; 3 ];
  Table.render fmt tbl

let ablation_allocator c =
  section "Ablation: allocator sensitivity (footnote 23, §10) — omnetpp, Reloaded"
    "(the paper evaluates with snmalloc but ships with jemalloc; footnote 23 \
     attributes up to 2x wall-clock swings to allocator choice alone)";
  let p = Workload.Profile.find "omnetpp" in
  let tbl =
    Table.create
      ~header:[ "allocator"; "mode"; "wall ms"; "bus"; "RSS pages"; "revocations" ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun mode ->
          let r =
            Workload.Spec.run ~seed:c.seed ~ops_scale:(c.scale /. 2.0)
              ~allocator:kind ~mode p
          in
          let revs =
            match r.Result.mrs with Some s -> s.Ccr.Mrs.revocations | None -> 0
          in
          Table.add_row tbl
            [
              (match kind with
              | Runtime.Snmalloc -> "snmalloc"
              | Runtime.Jemalloc -> "jemalloc");
              r.Result.mode;
              Table.cell_f (Result.wall_ms r);
              string_of_int r.Result.bus_total;
              string_of_int r.Result.peak_rss_pages;
              string_of_int revs;
            ])
        [ Runtime.Baseline; Runtime.Safe Revoker.Reloaded ])
    [ Runtime.Snmalloc; Runtime.Jemalloc ];
  Table.render fmt tbl

let ablation_coloring _c =
  section "Ablation: memory-coloring composition (§7.3)"
    "(with k colors only every k-th free reaches quarantine; stale accesses \
     fail-stop instantly instead of at the next epoch)";
  let run colors =
    let config =
      { Sim.Machine.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }
    in
    let rt = Runtime.create ~config (Runtime.Safe Revoker.Reloaded) in
    let mrs = Option.get rt.Runtime.mrs in
    let col = Ccr.Coloring.create rt.Runtime.machine ~mrs ~colors in
    let out = ref (0, 0) in
    ignore
      (Sim.Machine.spawn rt.Runtime.machine ~name:"app" ~core:3 (fun ctx ->
           let rng = Sim.Prng.create ~seed:5 in
           for _ = 1 to 20_000 do
             let cp = Ccr.Coloring.malloc col ctx (64 + (16 * Sim.Prng.int rng 28)) in
             Ccr.Coloring.store col ctx cp 7L;
             Ccr.Coloring.free col ctx cp
           done;
           out :=
             ( Ccr.Coloring.quarantine_frees col,
               Revoker.revocation_count (Option.get rt.Runtime.revoker) );
           Ccr.Mrs.finish mrs ctx));
    Sim.Machine.run rt.Runtime.machine;
    !out
  in
  let tbl =
    Table.create ~header:[ "colors"; "quarantine frees / 20000"; "revocations" ]
  in
  List.iter
    (fun k ->
      let q, revs = run k in
      Table.add_row tbl [ string_of_int k; string_of_int q; string_of_int revs ])
    [ 2; 4; 16 ];
  Table.render fmt tbl
