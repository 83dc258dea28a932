module Machine = Sim.Machine
module Prng = Sim.Prng
module Runtime = Ccr.Runtime

(* Tenants run on the application cores; core 2 stays the revokers',
   core 0 also hosts the reaper. *)
let tenant_cores = [| 3; 1; 0 |]

type tenant_result = {
  t_pid : int;
  t_profile : string;
  t_ops : int;
  t_elapsed_cycles : int; (* fork to exit *)
  t_quarantine_peak : int;
}

type result = {
  mode : string;
  sched : string;
  tenants : int;
  wall_cycles : int;
  total_ops : int;
  throughput : float; (* aggregate ops per million wall cycles *)
  fairness : float; (* slowest tenant's elapsed / fastest's; 1.0 = fair *)
  per_tenant : tenant_result list;
  sched_stats : Os.Revsched.stats list;
}

let run ?(seed = 1) ?(ops_scale = 1.0) ?policy ?(sched = Os.Revsched.Round_robin)
    ?(tenants = 2) ?tracer ?on_os ~mode (p : Profile.t) =
  if tenants < 1 then invalid_arg "Tenant.run: tenants";
  let config =
    Runtime.machine_config ~processes:tenants ~heap_bytes:(Profile.heap_bytes_needed p)
      ~seed ()
  in
  let os = Os.create ~config ?policy ~sched ~revoker_core:2 mode in
  let m = Os.machine os in
  Machine.attach_tracer m tracer;
  (match on_os with Some f -> f os | None -> ());
  Os.spawn_reaper os;
  let ops = int_of_float (float_of_int p.Profile.ops *. ops_scale) in
  let ops_done = Array.make (tenants + 1) (ref 0) in
  let q_peak = Array.make (tenants + 1) 0 in
  let wall_end = ref 0 in
  ignore
    (Machine.spawn m ~name:"init" ~core:0 (fun ctx ->
         for i = 0 to tenants - 1 do
           let core = tenant_cores.(i mod Array.length tenant_cores) in
           let counter = ref 0 in
           let child =
             Os.fork os ctx ~parent:(Os.init os)
               ~name:(Printf.sprintf "tenant-%d" i)
               ~core
               (fun cctx proc ->
                 (* Each tenant runs the same profile under its own
                    deterministic stream, so tenants contend but stay
                    reproducible. *)
                 let rng =
                   Prng.create ~seed:((seed * 7919) + Os.pid proc)
                 in
                 Spec.app_body p (Os.runtime proc) ~rng ~ops
                   ~ops_done:counter cctx;
                 let pid = Os.pid proc in
                 q_peak.(pid) <-
                   max q_peak.(pid) (Os.proc_stats os proc).Os.quarantine_bytes;
                 Os.exit os cctx proc)
           in
           ops_done.(Os.pid child) <- counter
         done;
         Os.wait_children os ctx;
         wall_end := Machine.now ctx;
         Os.shutdown os ctx));
  Machine.run m;
  let per_tenant =
    List.filter_map
      (fun proc ->
        let pid = Os.pid proc in
        if pid = 0 then None
        else
          let st = Os.proc_stats os proc in
          Some
            {
              t_pid = pid;
              t_profile = p.Profile.name;
              t_ops = !(ops_done.(pid));
              t_elapsed_cycles = st.Os.elapsed_cycles;
              t_quarantine_peak = q_peak.(pid);
            })
      (Os.procs os)
  in
  let total_ops = List.fold_left (fun a t -> a + t.t_ops) 0 per_tenant in
  let elapsed = List.map (fun t -> t.t_elapsed_cycles) per_tenant in
  let fairness =
    match elapsed with
    | [] -> 1.0
    | e :: _ ->
        let mn = List.fold_left min e elapsed
        and mx = List.fold_left max e elapsed in
        if mn = 0 then 1.0 else float_of_int mx /. float_of_int mn
  in
  let wall = !wall_end in
  {
    mode = Runtime.mode_name mode;
    sched = Os.Revsched.policy_name sched;
    tenants;
    wall_cycles = wall;
    total_ops;
    throughput =
      (if wall = 0 then 0.0
       else float_of_int total_ops *. 1_000_000.0 /. float_of_int wall);
    fairness;
    per_tenant;
    sched_stats = Os.Revsched.stats (Os.sched os);
  }

let pp fmt (r : result) =
  Format.fprintf fmt
    "tenants=%d mode=%s sched=%s wall=%d cycles ops=%d throughput=%.2f \
     ops/Mcycle fairness=%.3f@."
    r.tenants r.mode r.sched r.wall_cycles r.total_ops r.throughput r.fairness;
  List.iter
    (fun t ->
      Format.fprintf fmt
        "  pid %d (%s): %d ops in %d cycles, peak quarantine %d bytes@."
        t.t_pid t.t_profile t.t_ops t.t_elapsed_cycles t.t_quarantine_peak)
    r.per_tenant;
  List.iter
    (fun (s : Os.Revsched.stats) ->
      Format.fprintf fmt "  sched pid %d: %d grants, %d cycles waited@."
        s.Os.Revsched.pid s.Os.Revsched.grants s.Os.Revsched.wait_cycles)
    r.sched_stats
