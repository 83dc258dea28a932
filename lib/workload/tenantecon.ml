(* Tenant economics under a bulk-reclamation storm.

   N tenant processes with heterogeneous quotas serve open-loop traffic
   through per-tenant admission queues whose quota gate sheds requests
   from over-budget tenants before they queue. Each request churns
   short-lived temporaries and a standing session ring through the
   tenant's sealed allocator capability, so quarantine lag shows up as
   quota balance. At [storm_at] of the horizon the largest tenant
   crashes: its queue drains as lost, [Ledger.free_all] hands its entire
   live heap to quarantine in one shot, and its capability is revoked —
   a revocation-pressure spike the remaining tenants (and the governor,
   when enabled) must ride out. The per-time-slice p99.9 curve shows the
   excursion; the quota ledger's conservation identity and the serving
   accounting identity are both checked exactly. *)

module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Cost = Sim.Cost
module Runtime = Ccr.Runtime
module Ledger = Tenancy.Ledger
module Loadgen = Service.Loadgen
module Squeue = Service.Squeue
module Slo = Service.Slo
module Governor = Service.Governor

(* Tenants serve on the application cores; core 2 stays the revokers',
   core 0 hosts the generators and the reaper. *)
let tenant_cores = [| 3; 1; 0 |]

(* Each tenant's admission bound and the SLO target its governor and
   latency accounting share. *)
let queue_depth = 64
let target_p99_us = 1_000.0

(* The standing session ring: 256-byte blocks worth three quarters of
   the tenant's quota. *)
let block_bytes = 256
let ring_frac = 0.75

(* Per request: two unmarshalling temporaries, and compute cycles. *)
let compute_per_req = 20_000

type config = {
  tenants : int;
  quota_base : int; (* tenant i's quota = quota_base * (i + 1) *)
  phys_frac : float; (* phys_limit as a fraction of Σ quotas (<1 over-commits) *)
  overcommit : Ledger.overcommit;
  sched : Os.Revsched.policy;
  requests : int; (* per tenant *)
  rate : float; (* per-tenant offered rate, req/s *)
  storm_at : float; (* fraction of the horizon; >= 1.0 disables the storm *)
  governed : bool;
  slices : int; (* time slices for the p99.9 curve *)
  seed : int;
}

let default_config =
  {
    tenants = 3;
    quota_base = 768 * 1024;
    phys_frac = 0.8;
    overcommit = Ledger.Steal_from_idle;
    sched = Os.Revsched.Quota;
    requests = 1_200;
    rate = 40_000.0;
    storm_at = 0.5;
    governed = true;
    slices = 20;
    seed = 7;
  }

type tenant_outcome = {
  o_pid : int;
  o_quota : int;
  o_offered : int;
  o_served : int;
  o_shed_quota : int;
  o_shed_depth : int;
  o_shed_deadline : int;
  o_lost : int;
  o_denied_quota : int; (* allocation denies inside admitted requests *)
  o_denied_phys : int;
  o_reclaims : int;
  o_p99_us : float;
  o_goodput : float; (* served requests per second of wall time *)
  o_balance : int; (* outstanding charge at the end of the run *)
  o_conserved : bool;
  o_grants : int;
  o_wait_cycles : int;
  o_crashed : bool;
}

type result = {
  mode : string;
  sched : string;
  overcommit : string;
  tenants : int;
  governed : bool;
  wall_cycles : int;
  phys_limit : int;
  quota_total : int;
  storm_tenant : int; (* pid, or -1 when the storm is disabled *)
  storm_cycles : int; (* simulated time of the crash *)
  storm_freed_allocs : int;
  storm_freed_bytes : int;
  quarantine_peak : int; (* machine-wide, sampled at request completions *)
  committed_peak : int; (* ledger Σ balances peak *)
  p999_us : float;
  p999_calm_us : float; (* worst slice p99.9 before the storm *)
  p999_storm_us : float; (* worst slice p99.9 at/after the storm *)
  slice_p999 : float array;
  identity_ok : bool; (* offered = served + shed + lost, every tenant *)
  conserved : bool; (* ledger conservation identity, every tenant *)
  per_tenant : tenant_outcome list;
}

(* Latency samples, kept unboxed until the end of the run. *)
type samples = { mutable buf : float array; mutable len : int }

let samples () = { buf = Array.make 64 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.buf then begin
    let grown = Array.make (2 * s.len) 0.0 in
    Array.blit s.buf 0 grown 0 s.len;
    s.buf <- grown
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

let p999 s = if s.len = 0 then 0.0 else Stats.Summary.percentile_in_place s.buf s.len 99.9

(* Per-tenant shared state between the fork body and its generator. *)
type lane = {
  mutable queue : Squeue.t option;
  mutable pid : int;
  mutable offered : int;
  mutable lost_arrivals : int; (* arrivals after the crash, never offered *)
  mutable crashed : bool;
  slo : Slo.t;
}

let run ?tracer ?on_os ?(config = default_config) ~mode () =
  let cfg = config in
  if cfg.tenants < 1 then invalid_arg "Tenantecon.run: tenants must be >= 1";
  if cfg.quota_base <= 0 then invalid_arg "Tenantecon.run: quota_base must be > 0";
  if cfg.slices < 1 then invalid_arg "Tenantecon.run: slices must be >= 1";
  let quota i = cfg.quota_base * (i + 1) in
  let quota_total =
    List.fold_left ( + ) 0 (List.init cfg.tenants quota)
  in
  let phys_limit =
    max 4096 (int_of_float (cfg.phys_frac *. float_of_int quota_total))
  in
  (* VA heaps are sized so the economics, not the simulated hardware,
     are the binding constraint: the biggest tenant's quota plus its
     quarantine in flight must fit comfortably. *)
  let heap_bytes = max (4 * 1024 * 1024) (4 * quota (cfg.tenants - 1)) in
  let config =
    Runtime.machine_config ~processes:(cfg.tenants + 1) ~heap_bytes ~seed:cfg.seed ()
  in
  let os = Os.create ~config ~sched:cfg.sched ~revoker_core:2 mode in
  let m = Os.machine os in
  Machine.attach_tracer m tracer;
  (match on_os with Some f -> f os | None -> ());
  Os.spawn_reaper os;
  let ledger = Ledger.create m ~phys_limit ~overcommit:cfg.overcommit () in
  let arrivals =
    Array.init cfg.tenants (fun i ->
        Loadgen.schedule
          {
            Loadgen.pattern = Loadgen.Poisson cfg.rate;
            requests = cfg.requests;
            seed = cfg.seed + (101 * i);
          })
  in
  let horizon =
    Array.fold_left
      (fun acc a -> max acc (if Array.length a = 0 then 0 else a.(Array.length a - 1)))
      1 arrivals
  in
  let storm_enabled = cfg.storm_at < 1.0 && cfg.requests > 0 in
  let lanes =
    Array.init cfg.tenants (fun _ ->
        {
          queue = None;
          pid = -1;
          offered = 0;
          lost_arrivals = 0;
          crashed = false;
          slo = Slo.create ~target_p99_us ();
        })
  in
  let ready = Machine.condvar () in
  let ready_count = ref 0 in
  (* All generators release traffic against one common origin, fixed by
     the last tenant to come up — slices and the storm trigger share it. *)
  let start_time = ref (-1) in
  let storm_time () =
    !start_time + int_of_float (cfg.storm_at *. float_of_int horizon)
  in
  let slice_lat = Array.init cfg.slices (fun _ -> samples ()) in
  let all_lat = samples () in
  let slice_of intended =
    let off = intended - !start_time in
    Int.min (cfg.slices - 1) (Int.max 0 (off * cfg.slices / Int.max 1 horizon))
  in
  let quarantine_peak = ref 0 in
  let storm_cycles = ref 0 in
  let storm_freed = ref (0, 0) in
  let storm_pid = ref (-1) in
  let wall_end = ref 0 in
  let sample_quarantine () =
    let q = Os.quarantine_bytes os in
    if q > !quarantine_peak then quarantine_peak := q
  in
  (* One request: unmarshal temporaries, refresh a session-ring slot,
     compute, respond, free — all charged to the tenant's capability. *)
  let process_request cap ctx rng ring ring_next =
    let t1 = Ledger.malloc cap ctx (64 + (16 * Prng.int rng 12)) in
    let t2 = Ledger.malloc cap ctx (64 + (16 * Prng.int rng 12)) in
    (match t1 with Some c -> Machine.store_u64 ctx c 1L | None -> ());
    (match t2 with Some c -> Machine.store_u64 ctx c 1L | None -> ());
    (match Ledger.malloc cap ctx block_bytes with
    | Some c ->
        Machine.store_u64 ctx c (Int64.of_int !ring_next);
        let slot = !ring_next mod Array.length ring in
        ring_next := !ring_next + 1;
        (match ring.(slot) with
        | Some old -> Ledger.free cap ctx old
        | None -> ());
        ring.(slot) <- Some c
    | None -> ());
    Machine.charge ctx compute_per_req;
    (match t1 with Some c -> Ledger.free cap ctx c | None -> ());
    match t2 with Some c -> Ledger.free cap ctx c | None -> ()
  in
  let tenant_body i lane cctx proc =
    let pid = Os.pid proc in
    lane.pid <- pid;
    let rt = Os.runtime proc in
    let rng = Prng.create ~seed:((cfg.seed * 7919) + pid) in
    let cap = Ledger.register ledger ~tenant:pid ~quota:(quota i) rt in
    let queue =
      Squeue.create m ~max_depth:queue_depth
        ~quota_gate:(fun tn -> Ledger.over_quota ledger ~tenant:tn)
        ()
    in
    (* Only a process with a revoker has a scheduler entry
       ([Os.register_with_sched]): a baseline runtime has none. *)
    if rt.Runtime.revoker <> None then begin
      Os.Revsched.set_debt (Os.sched os) ~pid (fun () ->
          Ledger.debt ledger ~tenant:pid);
      Os.Revsched.set_load (Os.sched os) ~pid (fun () ->
          min 1.0
            (float_of_int (Squeue.depth queue) /. float_of_int queue_depth))
    end;
    let gov =
      if cfg.governed && rt.Runtime.revoker <> None then
        Some
          (Governor.install ~target_p99_us
             ~p99:(fun () -> Slo.p99_estimate lane.slo)
             rt
             ~depth:(fun () -> Squeue.depth queue)
             ())
      else None
    in
    (* Standing session ring: a live heap worth [ring_frac] of quota,
       built before serving starts, replaced block by block under load —
       the storm tenant's free_all hands all of it to quarantine. *)
    let slots =
      max 8 (int_of_float (ring_frac *. float_of_int (quota i))
             / Alloc.Sizeclass.rounded_size block_bytes)
    in
    let ring = Array.make slots None in
    Array.iteri
      (fun s _ ->
        match Ledger.malloc cap cctx block_bytes with
        | Some c ->
            Machine.store_u64 cctx c (Int64.of_int s);
            ring.(s) <- Some c
        | None -> ())
      ring;
    let ring_next = ref 0 in
    lane.queue <- Some queue;
    incr ready_count;
    if !ready_count = cfg.tenants then start_time := Machine.now cctx;
    Machine.broadcast cctx ready;
    let is_storm_tenant = storm_enabled && i = cfg.tenants - 1 in
    let crash () =
      lane.crashed <- true;
      Squeue.drain_lost queue cctx;
      Squeue.close queue cctx;
      storm_pid := pid;
      storm_cycles := Machine.now cctx;
      let freed = Ledger.free_all cap cctx in
      storm_freed := freed;
      Ledger.revoke_cap ledger pid;
      sample_quarantine ();
      Option.iter Governor.uninstall gov;
      Os.exit os cctx proc
    in
    let rec serve () =
      if is_storm_tenant && (not lane.crashed) && !start_time >= 0
         && Machine.now cctx >= storm_time ()
      then crash ()
      else begin
        if Squeue.depth queue = 0 then
          Option.iter (fun g -> Governor.maybe_eager g cctx) gov;
        match Squeue.take queue cctx with
        | None ->
            (* Graceful shutdown: return the standing ring through the
               ordinary quarantine path, then exit. *)
            Array.iteri
              (fun s slot ->
                match slot with
                | Some c ->
                    Ledger.free cap cctx c;
                    ring.(s) <- None
                | None -> ())
              ring;
            Option.iter Governor.uninstall gov;
            Os.exit os cctx proc
        | Some req ->
            process_request cap cctx rng ring ring_next;
            let lat =
              Slo.record lane.slo ~intended:req.Squeue.intended
                ~completed:(Machine.now cctx)
            in
            push slice_lat.(slice_of req.Squeue.intended) lat;
            push all_lat lat;
            sample_quarantine ();
            serve ()
      end
    in
    serve ()
  in
  (* Per-tenant open-loop generators, non-user so a stop-the-world pause
     cannot park them: intended arrival times keep their meaning. *)
  let generator i lane =
    ignore
      (Machine.spawn m
         ~name:(Printf.sprintf "tenantecon-gen-%d" i)
         ~core:0 ~user:false
         (fun ctx ->
           while lane.queue = None || !start_time < 0 do
             Machine.wait ctx ready
           done;
           let queue = Option.get lane.queue in
           Array.iteri
             (fun r arr ->
               if lane.crashed then lane.lost_arrivals <- lane.lost_arrivals + 1
               else begin
                 let intended = !start_time + arr in
                 let dt = intended - Machine.now ctx in
                 if dt > 0 then Machine.sleep ctx dt;
                 if lane.crashed then
                   lane.lost_arrivals <- lane.lost_arrivals + 1
                 else begin
                   lane.offered <- lane.offered + 1;
                   Slo.note_offered lane.slo;
                   ignore
                     (Squeue.offer queue ctx
                        {
                          Squeue.id = (i * cfg.requests) + r;
                          intended;
                          deadline = None;
                          tenant = lane.pid;
                        })
                 end
               end)
             arrivals.(i);
           if not lane.crashed then Squeue.close queue ctx))
  in
  ignore
    (Machine.spawn m ~name:"init" ~core:0 (fun ctx ->
         Array.iteri
           (fun i lane ->
             let core = tenant_cores.(i mod Array.length tenant_cores) in
             ignore
               (Os.fork os ctx ~parent:(Os.init os)
                  ~name:(Printf.sprintf "tenant-%d" i)
                  ~core (tenant_body i lane)))
           lanes;
         Array.iteri generator lanes;
         Os.wait_children os ctx;
         wall_end := Machine.now ctx;
         Os.shutdown os ctx));
  Machine.run m;
  let wall = !wall_end in
  let sched_stats = Os.Revsched.stats (Os.sched os) in
  let grants_of pid =
    match
      List.find_opt (fun (s : Os.Revsched.stats) -> s.Os.Revsched.pid = pid)
        sched_stats
    with
    | Some s -> (s.Os.Revsched.grants, s.Os.Revsched.wait_cycles)
    | None -> (0, 0)
  in
  let per_tenant =
    Array.to_list
      (Array.mapi
         (fun i lane ->
           let queue = Option.get lane.queue in
           let st = Ledger.account_stats ledger ~tenant:lane.pid in
           let served = Slo.served lane.slo in
           let grants, waits = grants_of lane.pid in
           {
             o_pid = lane.pid;
             o_quota = quota i;
             (* Every generated arrival: post-crash arrivals were never
                enqueued but still count as offered-and-lost traffic. *)
             o_offered = lane.offered + lane.lost_arrivals;
             o_served = served;
             o_shed_quota = Squeue.shed_quota queue;
             o_shed_depth = Squeue.shed_depth queue;
             o_shed_deadline = Squeue.shed_deadline queue;
             o_lost = Squeue.lost queue + lane.lost_arrivals;
             o_denied_quota = st.Ledger.s_denied_quota;
             o_denied_phys = st.Ledger.s_denied_phys;
             o_reclaims = st.Ledger.s_reclaims;
             o_p99_us =
               Option.value ~default:0.0 (Slo.percentile lane.slo 99.0);
             o_goodput =
               (if wall = 0 then 0.0
                else float_of_int served /. (float_of_int wall /. Cost.clock_hz));
             o_balance = st.Ledger.s_charged - st.Ledger.s_credited;
             o_conserved = st.Ledger.s_conserved;
             o_grants = grants;
             o_wait_cycles = waits;
             o_crashed = lane.crashed;
           })
         lanes)
  in
  let identity_ok =
    List.for_all
      (fun o ->
        o.o_offered
        = o.o_served + o.o_shed_quota + o.o_shed_depth + o.o_shed_deadline
          + o.o_lost)
      per_tenant
    && List.for_all (fun o -> o.o_offered = cfg.requests) per_tenant
  in
  let slice_p999 = Array.map p999 slice_lat in
  let storm_slice =
    if storm_enabled then
      min (cfg.slices - 1)
        (max 0 (int_of_float (cfg.storm_at *. float_of_int cfg.slices)))
    else cfg.slices
  in
  let fold_max lo hi =
    let acc = ref 0.0 in
    for s = lo to hi do
      if slice_p999.(s) > !acc then acc := slice_p999.(s)
    done;
    !acc
  in
  let n_allocs, n_bytes = !storm_freed in
  {
    mode = Runtime.mode_name mode;
    sched = Os.Revsched.policy_name cfg.sched;
    overcommit = Ledger.overcommit_name cfg.overcommit;
    tenants = cfg.tenants;
    governed = cfg.governed;
    wall_cycles = wall;
    phys_limit;
    quota_total;
    storm_tenant = !storm_pid;
    storm_cycles = !storm_cycles;
    storm_freed_allocs = n_allocs;
    storm_freed_bytes = n_bytes;
    quarantine_peak = !quarantine_peak;
    committed_peak = Ledger.peak_committed ledger;
    p999_us = p999 all_lat;
    (* Slice 0 carries the cold-start transient (first epochs, cold
       caches); the calm figure starts at slice 1 so the storm excursion
       is measured against warmed-up steady state. *)
    p999_calm_us =
      (if storm_slice <= 1 then 0.0
       else fold_max (min 1 (storm_slice - 1)) (storm_slice - 1));
    p999_storm_us =
      (if storm_slice >= cfg.slices then 0.0
       else fold_max storm_slice (cfg.slices - 1));
    slice_p999;
    identity_ok;
    conserved = List.for_all (fun o -> o.o_conserved) per_tenant;
    per_tenant;
  }

let pp fmt (r : result) =
  Format.fprintf fmt
    "tenants=%d mode=%s sched=%s overcommit=%s governor=%s wall=%d cycles@."
    r.tenants r.mode r.sched r.overcommit
    (if r.governed then "on" else "off")
    r.wall_cycles;
  Format.fprintf fmt
    "  phys=%d committed-peak=%d quarantine-peak=%d p99.9=%.0fus \
     calm=%.0fus storm=%.0fus@."
    r.phys_limit r.committed_peak r.quarantine_peak r.p999_us r.p999_calm_us
    r.p999_storm_us;
  if r.storm_tenant >= 0 then
    Format.fprintf fmt "  storm: pid %d freed %d allocs / %d bytes at %d@."
      r.storm_tenant r.storm_freed_allocs r.storm_freed_bytes r.storm_cycles;
  Format.fprintf fmt "  slice p99.9 us:";
  Array.iter (fun v -> Format.fprintf fmt " %.0f" v) r.slice_p999;
  Format.fprintf fmt "@.";
  List.iter
    (fun o ->
      Format.fprintf fmt
        "  pid %d%s quota=%d: offered=%d served=%d shed(q/d/dl)=%d/%d/%d \
         lost=%d deny(q/p)=%d/%d reclaims=%d p99=%.0fus goodput=%.0f/s \
         balance=%d grants=%d%s@."
        o.o_pid
        (if o.o_crashed then "*" else "")
        o.o_quota o.o_offered o.o_served o.o_shed_quota o.o_shed_depth
        o.o_shed_deadline o.o_lost o.o_denied_quota o.o_denied_phys
        o.o_reclaims o.o_p99_us o.o_goodput o.o_balance o.o_grants
        (if o.o_conserved then "" else " NOT-CONSERVED"))
    r.per_tenant
