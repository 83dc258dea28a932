(* Golden digest of simulated results.

   A fixed set of campaign cells — the 45-cell SPEC campaign (every
   profile x mode) at a tiny ops scale, plus small cells from the serving,
   gRPC, tenant-economics, chaos and model-checking layers — is
   rendered as canonical text and hashed cell by cell. The rendering holds
   simulated quantities only (cycles, CPU, bus, RSS, CLG faults, per-epoch
   phases, latency percentiles); host-side figures such as durations, job
   counts and throughput never enter it. The digests are compared against
   golden.digest, so a change that moves any simulated number in these
   cells fails here and names the cells it moved.

   Regenerate after an intended change of simulated behaviour with

     dune exec test/test_golden.exe -- --write test/golden.digest

   and print the rendered cells, to see what moved, with [-- --show]. *)

module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Result = Workload.Result
module Profile = Workload.Profile

let spec_scale = 0.02
let seed = 1

let modes =
  [
    Runtime.Baseline;
    Runtime.Safe Revoker.Paint_sync;
    Runtime.Safe Revoker.Cherivoke;
    Runtime.Safe Revoker.Cornucopia;
    Runtime.Safe Revoker.Reloaded;
  ]

(* ---- canonical rendering ---- *)

let line b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt

(* %.17g round-trips every double exactly *)
let fl x = Printf.sprintf "%.17g" x
let ints l = String.concat "," (List.map string_of_int l)

let percentiles b name xs =
  if Array.length xs > 0 then begin
    let l = Array.to_list xs in
    line b "%s n=%d p50=%s p99=%s p999=%s max=%s" name (Array.length xs)
      (fl (Stats.Summary.percentile l 50.0))
      (fl (Stats.Summary.percentile l 99.0))
      (fl (Stats.Summary.percentile l 99.9))
      (fl (Array.fold_left max neg_infinity xs))
  end

let phase b (p : Revoker.phase_record) =
  line b "epoch %d at=%d stw=%d conc=%d fault=%d/%d pages=%d caps=%d bytes=%d"
    p.Revoker.epoch_index p.Revoker.requested_at p.Revoker.stw_cycles
    p.Revoker.concurrent_cycles p.Revoker.fault_cycles p.Revoker.fault_count
    p.Revoker.pages_visited p.Revoker.caps_revoked p.Revoker.bytes_processed

let result b (r : Result.t) =
  line b "wall=%d cpu=%d app_cpu=%d bus=%d bus_app=%d rss=%d clg=%d ops=%d scrub=%d"
    r.Result.wall_cycles r.Result.cpu_cycles r.Result.app_cpu_cycles r.Result.bus_total
    r.Result.bus_app_core r.Result.peak_rss_pages r.Result.clg_faults r.Result.ops_done
    r.Result.scrub_bytes;
  (match r.Result.mrs with
  | None -> ()
  | Some s ->
      line b "mrs revocations=%d freed=%d blocked=%d throttled=%d abandoned=%d"
        s.Ccr.Mrs.revocations s.Ccr.Mrs.sum_freed_bytes s.Ccr.Mrs.blocked_allocs
        s.Ccr.Mrs.throttled_allocs s.Ccr.Mrs.abandoned_bytes;
      line b "mrs live=%s" (ints s.Ccr.Mrs.live_samples);
      line b "mrs quarantine=%s" (ints s.Ccr.Mrs.quarantine_samples));
  List.iter (phase b) r.Result.phases;
  percentiles b "lat" r.Result.latencies_us;
  percentiles b "lat_closed" r.Result.latencies_closed_us;
  line b "throughput=%s" (fl r.Result.throughput)

(* ---- the cells ---- *)

let spec_cells =
  List.concat_map
    (fun (p : Profile.t) ->
      List.map
        (fun mode ->
          ( Printf.sprintf "spec/%s/%s" p.Profile.name (Runtime.mode_name mode),
            fun b ->
              result b (Workload.Spec.run ~seed ~ops_scale:spec_scale ~mode p) ))
        modes)
    Profile.spec_all

let serve_cell b =
  let o =
    Workload.Serve.run
      ~config:
        {
          Workload.Serve.default_config with
          pattern = Service.Loadgen.Poisson 150_000.0;
          requests = 600;
          queue_depth = 16;
          session_slots = 2_000;
          seed = 11;
        }
      ~governed:true ~mode:(Runtime.Safe Revoker.Reloaded) ()
  in
  line b "offered=%d served=%d shed_depth=%d shed_deadline=%d" o.Workload.Serve.offered
    o.Workload.Serve.served o.Workload.Serve.shed_depth o.Workload.Serve.shed_deadline;
  result b o.Workload.Serve.result

(* Each cell below guards one path no other cell reaches; failing here
   when that path goes quiet keeps a regenerated digest from silently
   pinning a cell that no longer exercises it. *)
let guard what n =
  if n = 0 then failwith (what ^ " is zero: the cell no longer exercises its path")

(* Ungoverned Cornucopia past the knee with a queueing deadline: the
   deadline-shed path. *)
let serve_deadline_cell b =
  let o =
    Workload.Serve.run
      ~config:
        {
          Workload.Serve.default_config with
          pattern = Service.Loadgen.Poisson 150_000.0;
          requests = 600;
          queue_depth = 16;
          deadline_us = Some 60.0;
          seed = 11;
        }
      ~mode:(Runtime.Safe Revoker.Cornucopia) ()
  in
  guard "shed_deadline" o.Workload.Serve.shed_deadline;
  line b "offered=%d served=%d shed_depth=%d shed_deadline=%d" o.Workload.Serve.offered
    o.Workload.Serve.served o.Workload.Serve.shed_depth o.Workload.Serve.shed_deadline;
  result b o.Workload.Serve.result

(* Governed Reloaded under a diurnal arrival schedule (the one
   [ccr_serve --pattern diurnal] draws): the governor flushes quarantine
   eagerly in a trough. *)
let serve_diurnal_cell b =
  let o =
    Workload.Serve.run
      ~config:
        {
          Workload.Serve.default_config with
          pattern =
            Service.Loadgen.Diurnal { low = 60_000.0; high = 180_000.0; period_us = 3_000.0 };
          requests = 600;
          queue_depth = 64;
          session_slots = 2_000;
          seed = 11;
        }
      ~governed:true ~mode:(Runtime.Safe Revoker.Reloaded) ()
  in
  let g = Option.get o.Workload.Serve.governor in
  guard "eager_flushes" g.Service.Governor.eager_flushes;
  line b "offered=%d served=%d shed_depth=%d shed_deadline=%d" o.Workload.Serve.offered
    o.Workload.Serve.served o.Workload.Serve.shed_depth o.Workload.Serve.shed_deadline;
  line b "governor deferred=%d forced=%d eager=%d defer_cycles=%d quanta=%d slo=%d"
    g.Service.Governor.epochs_deferred g.Service.Governor.epochs_forced
    g.Service.Governor.eager_flushes g.Service.Governor.defer_cycles
    g.Service.Governor.quanta_granted g.Service.Governor.slo_events;
  result b o.Workload.Serve.result

(* The closed-loop gRPC surrogate: three session touches per message. *)
let grpc_cell b =
  result b
    (Workload.Grpc.run
       ~config:{ Workload.Grpc.default_config with messages = 2_000 }
       ~mode:(Runtime.Safe Revoker.Reloaded) ())

let tenantecon_lines b (r : Workload.Tenantecon.result) =
  let module T = Workload.Tenantecon in
  line b "wall=%d storm=%d@%d freed=%d/%d quarantine_peak=%d committed_peak=%d"
    r.T.wall_cycles r.T.storm_tenant r.T.storm_cycles r.T.storm_freed_allocs
    r.T.storm_freed_bytes r.T.quarantine_peak r.T.committed_peak;
  line b "p999=%s calm=%s storm=%s slices=%s" (fl r.T.p999_us) (fl r.T.p999_calm_us)
    (fl r.T.p999_storm_us)
    (String.concat "," (Array.to_list (Array.map fl r.T.slice_p999)));
  List.iter
    (fun o ->
      line b
        "tenant %d offered=%d served=%d shed=%d/%d/%d lost=%d denied=%d/%d reclaims=%d \
         p99=%s balance=%d grants=%d wait=%d"
        o.T.o_pid o.T.o_offered o.T.o_served o.T.o_shed_quota o.T.o_shed_depth
        o.T.o_shed_deadline o.T.o_lost o.T.o_denied_quota o.T.o_denied_phys o.T.o_reclaims
        (fl o.T.o_p99_us) o.T.o_balance o.T.o_grants o.T.o_wait_cycles)
    r.T.per_tenant

let tenantecon_cell b =
  let module T = Workload.Tenantecon in
  tenantecon_lines b
    (T.run
       ~config:{ T.default_config with T.requests = 80; slices = 4 }
       ~mode:(Runtime.Safe Revoker.Reloaded) ())

let sum_tenants f (r : Workload.Tenantecon.result) =
  List.fold_left (fun acc o -> acc + f o) 0 r.Workload.Tenantecon.per_tenant

(* Ungoverned storms with physical memory tight enough that every
   over-commit policy acts: physical denies under each, and the ledger's
   reclaim loops under steal and revoke. *)
let tenantecon_overcommit_cell overcommit b =
  let module T = Workload.Tenantecon in
  let r =
    T.run
      ~config:
        {
          T.default_config with
          T.requests = 200;
          slices = 4;
          phys_frac = 0.6;
          overcommit;
          governed = false;
          seed;
        }
      ~mode:(Runtime.Safe Revoker.Reloaded) ()
  in
  guard "denied_phys" (sum_tenants (fun o -> o.T.o_denied_phys) r);
  if overcommit <> Tenancy.Ledger.Deny then
    guard "reclaims" (sum_tenants (fun o -> o.T.o_reclaims) r);
  tenantecon_lines b r

(* A baseline runtime has no quarantine: every free, the storm's
   free_all included, credits inline. *)
let tenantecon_baseline_cell b =
  let module T = Workload.Tenantecon in
  let r =
    T.run
      ~config:{ T.default_config with T.requests = 200; slices = 4; seed }
      ~mode:Runtime.Baseline ()
  in
  guard "storm_freed_allocs" r.T.storm_freed_allocs;
  tenantecon_lines b r

(* A revoking SPEC cell with a planned fault schedule armed: recoverable
   sweep crashes, lost shootdown acks, tag upsets and quarantine stalls.
   The horizon is the same cell's uninjected wall time. *)
let chaos_cell b =
  let p = Profile.find "hmmer_retro" in
  let strategy = Revoker.Cornucopia in
  let run ?on_runtime () =
    Workload.Spec.run ~seed ~ops_scale:0.02 ?on_runtime ~mode:(Runtime.Safe strategy) p
  in
  let horizon = (run ()).Result.wall_cycles in
  let schedule =
    Chaos.plan ~seed ~strategy ~horizon
      ~kinds:Chaos.[ Sweep_crash; Shootdown_ack_loss; Tag_corruption; Quarantine_stall ]
      ()
  in
  let armed = ref None in
  let r =
    run
      ~on_runtime:(fun rt ->
        armed :=
          Some
            (Chaos.install rt.Runtime.machine ~revoker:rt.Runtime.revoker
               ~mrs:rt.Runtime.mrs schedule))
      ()
  in
  line b "schedule=%d horizon=%d" (Chaos.schedule_id schedule) horizon;
  Option.iter
    (fun t ->
      List.iter
        (fun o ->
          line b "fault %s injected=%d" (Chaos.kind_name o.Chaos.o_kind) o.Chaos.o_injected)
        (Chaos.outcomes t))
    !armed;
  result b r

let mc_cell b =
  let scenario =
    match Mc.Scenario.find "free-during-sweep" with
    | Some sc -> sc
    | None -> failwith "unknown scenario free-during-sweep"
  in
  let strategy = Revoker.Reloaded in
  let o = Mc.Explorer.explore ~scenario ~strategy ~max_schedules:60 () in
  line b "executions=%d max_points=%d backtracks=%d capped=%b diverged=%d violation=%b"
    o.Mc.Explorer.executions o.Mc.Explorer.max_points o.Mc.Explorer.backtracks
    o.Mc.Explorer.capped o.Mc.Explorer.diverged (o.Mc.Explorer.violation <> None);
  let r = Mc.Explorer.run_one ~scenario ~strategy ~prefix:[] () in
  line b "points=%d choices=%d" r.Mc.Explorer.r_points (List.length r.Mc.Explorer.r_choices);
  Buffer.add_string b r.Mc.Explorer.r_trace

let cells =
  spec_cells
  @ [
      ("serve/reloaded-governed", serve_cell);
      ("tenantecon/reloaded", tenantecon_cell);
      ("chaos/hmmer_retro/cornucopia", chaos_cell);
      ("mc/free-during-sweep/reloaded", mc_cell);
      ("serve/cornucopia-deadline", serve_deadline_cell);
      ("grpc/reloaded", grpc_cell);
      ("tenantecon/deny-phys0.6", tenantecon_overcommit_cell Tenancy.Ledger.Deny);
      ("tenantecon/steal-phys0.6", tenantecon_overcommit_cell Tenancy.Ledger.Steal_from_idle);
      ("tenantecon/revoke-phys0.6", tenantecon_overcommit_cell Tenancy.Ledger.Trigger_revocation);
      ("tenantecon/baseline", tenantecon_baseline_cell);
      ("serve/reloaded-diurnal", serve_diurnal_cell);
    ]

let render_cells () =
  List.map
    (fun (name, render) ->
      let b = Buffer.create 1024 in
      render b;
      (name, Buffer.contents b))
    cells

let digest_cells () =
  List.map (fun (name, text) -> (name, Digest.to_hex (Digest.string text))) (render_cells ())

(* ---- the digest file: one "<cell> <md5>" line per cell ---- *)

let read_golden path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ name; hex ] -> Some (name, hex)
         | _ -> None)

let write_golden path digests =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (name, hex) -> Printf.fprintf oc "%s %s\n" name hex) digests)

(* under dune runtest the file sits next to the test; from the root of
   the checkout it is test/golden.digest *)
let golden_path =
  if Sys.file_exists "golden.digest" then "golden.digest" else "test/golden.digest"

let test_digests () =
  let golden = read_golden golden_path in
  let now = digest_cells () in
  let moved =
    List.filter (fun (name, hex) -> List.assoc_opt name golden <> Some hex) now
  in
  let gone = List.filter (fun (name, _) -> not (List.mem_assoc name now)) golden in
  List.iter (fun (name, _) -> Printf.printf "changed: %s\n" name) moved;
  List.iter (fun (name, _) -> Printf.printf "no longer produced: %s\n" name) gone;
  if moved <> [] || gone <> [] then
    print_endline
      "regenerate with: dune exec test/test_golden.exe -- --write test/golden.digest";
  Alcotest.(check int) "cells whose digest moved" 0 (List.length moved + List.length gone)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write"; path ] ->
      let d = digest_cells () in
      write_golden path d;
      Printf.printf "wrote %d cell digests to %s\n" (List.length d) path
  | [ _; "--show" ] ->
      List.iter (fun (name, text) -> Printf.printf "== %s\n%s" name text) (render_cells ())
  | _ ->
      Alcotest.run "golden"
        [ ("digest", [ Alcotest.test_case "simulated results unchanged" `Quick test_digests ]) ]
