module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Cost = Sim.Cost
module Trace = Sim.Trace
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Loadgen = Service.Loadgen
module Squeue = Service.Squeue
module Slo = Service.Slo
module Governor = Service.Governor

type clock = After_setup | Absolute

type config = {
  name : string;
  mode : Runtime.mode;
  governed : bool;
  policy : Ccr.Policy.t option;
  heap_mb : int;
  servers : int;
  queue_depth : int;
  deadline_us : float option;
  brownout : Squeue.brownout option;
  target_p99_us : float;
  session_slots : int;
  compute_per_req : int;
  seed : int;
  clock : clock;
  windows : (int * int) list;
  check : bool;
}

(* [not (x > 0.0)] also turns NaN away *)
let validate ~servers ~queue_depth ~deadline_us ~target_p99_us ?brownout () =
  if servers < 1 then Error (Printf.sprintf "need at least one server (got %d)" servers)
  else if queue_depth < 1 then
    Error (Printf.sprintf "queue depth must be at least 1 (got %d)" queue_depth)
  else
    match (deadline_us, brownout) with
    | Some d, _ when not (d > 0.0) ->
        Error (Printf.sprintf "deadline must be positive (got %g us)" d)
    | _ when not (target_p99_us > 0.0) ->
        Error (Printf.sprintf "p99 target must be positive (got %g us)" target_p99_us)
    | _, Some { Squeue.b_enter; b_exit; _ }
      when b_exit < 0 || b_enter <= b_exit || b_enter > queue_depth ->
        Error
          (Printf.sprintf
             "brownout band must satisfy 0 <= exit < enter <= queue depth (got exit %d, \
              enter %d, depth %d)"
             b_exit b_enter queue_depth)
    | _ -> Ok ()

(* ---- the request body and the session table ---- *)

let r_work = 1

(* Linked temporaries each request allocates and frees. *)
let temps_per_req = 3

(* Unmarshal temporaries, touch session state with occasional
   replacement, compute, respond, free — enough capability churn on
   long-lived pages that the revoker has real work. *)
let request rt ctx rng regs sessions ~touches ~compute =
  let tmp =
    Array.init temps_per_req (fun i ->
        let c = Runtime.malloc rt ctx (128 + (Prng.int rng 56 * 16)) in
        Machine.store_u64 ctx c (Int64.of_int i);
        let prev = Sim.Regfile.get regs r_work in
        if Capability.tag prev && Capability.length c >= 32 then
          Machine.store_cap_at ctx c (Capability.addr c + 16) prev;
        Sim.Regfile.set regs r_work c;
        c)
  in
  for _ = 1 to touches do
    match Objtable.random_live sessions rng ~hot:0.1 ~weight:0.5 with
    | None -> ()
    | Some slot ->
        let c = Objtable.get sessions ctx slot in
        if Capability.tag c then begin
          Sim.Regfile.set regs r_work c;
          Machine.touch_u64_at ctx c (Capability.addr c);
          Machine.store_u64_at ctx c (Capability.addr c + 8) 7L;
          if Prng.int rng 100 = 0 then begin
            let nv = Runtime.malloc rt ctx 256 in
            Machine.store_u64 ctx nv 1L;
            Objtable.put sessions ctx slot nv ~size:256;
            Runtime.free rt ctx c;
            Sim.Regfile.set regs r_work Capability.null
          end
        end
  done;
  Machine.charge ctx compute;
  Array.iter (fun c -> Runtime.free rt ctx c) tmp;
  Sim.Regfile.set regs r_work Capability.null

type sessions = { mutable table : Objtable.t option; ready : Machine.condvar }

let sessions () = { table = None; ready = Machine.condvar () }

let build_sessions s rt ctx ~slots =
  let t = Objtable.create rt ctx ~slots in
  for slot = 0 to slots - 1 do
    let c = Runtime.malloc rt ctx 256 in
    Machine.store_u64 ctx c (Int64.of_int slot);
    Objtable.put t ctx slot c ~size:256
  done;
  s.table <- Some t;
  Machine.broadcast ctx s.ready;
  t

let rec await_sessions s ctx =
  match s.table with
  | Some t -> t
  | None ->
      Machine.wait ctx s.ready;
      await_sessions s ctx

(* ---- per-arrival fates, flat ---- *)

type fate =
  | Served of { completed : int; latency_us : float }
  | Shed of { why : int; at : int }
  | Lost of { at : int }

(* [kind]: 0 none yet, 1 served, 2 lost, 3 + why shed; [at] is the
   completion, shed or loss cycle *)
type fates = { kind : Bytes.t; at : int array; latency_us : float array }

let fate f i =
  match Bytes.get_uint8 f.kind i with
  | 0 -> None
  | 1 -> Some (Served { completed = f.at.(i); latency_us = f.latency_us.(i) })
  | 2 -> Some (Lost { at = f.at.(i) })
  | k -> Some (Shed { why = k - 3; at = f.at.(i) })

let settle f i kind at =
  Bytes.set_uint8 f.kind i kind;
  f.at.(i) <- at

let set_served f i ~at ~latency_us =
  settle f i 1 at;
  f.latency_us.(i) <- latency_us

let set_lost f i ~at = settle f i 2 at
let set_shed f i ~why ~at = settle f i (3 + why) at

type outcome = {
  result : Result.t;
  arrivals : int;
  served : int;
  shed_depth : int;
  shed_deadline : int;
  shed_brownout : int;
  lost : int;
  brownout_shifts : int;
  slo : Slo.t;
  fates : fates;
  epochs : int;
  stw_pause_us : float;
  max_pause_us : float;
  epoch_resumes : int;
  sweep_crash_retries : int;
  chaos_injected : int;
  governor : Governor.stats option;
  clean : bool;
  report : string;
}

(* Servers round-robin over cores 2, 3, 1: the first two land where the
   gRPC surrogate puts them, with the revoker sharing core 3 so
   revocation competes with foreground service. Core 0 is the
   generator's. *)
let server_core i = [| 2; 3; 1 |].(i mod 3)

(* A request whose service started before a crash and whose answer was
   produced at-or-after it crossed the outage: the machine computed a
   response nobody will ever receive. Returns the window. *)
let crossed_crash windows ~started ~completed =
  List.find_opt (fun (down, _) -> started < down && completed >= down) windows

(* Faults at each window start. Every mode loses its in-flight queue
   (Inflight_loss — the crash destroys admitted-but-unanswered work);
   sweeping modes additionally take an induced sweep crash, so the
   restart exercises the resumable-epoch recovery path (the checkpointed
   sweep cursor survives and the epoch resumes, not restarts). *)
let crash_schedule cfg =
  let at kind first =
    List.mapi
      (fun i (down, _) ->
        { Chaos.f_id = first + i; f_kind = kind; f_at = down; f_param = 0; f_count = 1 })
      cfg.windows
  in
  let inflight = at Chaos.Inflight_loss 0 in
  let sweeps =
    match cfg.mode with
    | Runtime.Safe strategy when Chaos.applicable strategy Chaos.Sweep_crash ->
        at Chaos.Sweep_crash (List.length inflight)
    | Runtime.Safe _ | Runtime.Baseline -> []
  in
  {
    Chaos.sched_id = (cfg.seed * 127) land 0x3fffffff;
    horizon = List.fold_left (fun a (_, up) -> max a up) 0 cfg.windows;
    faults = inflight @ sweeps;
  }

let run ?tracer ?on_runtime cfg ~arrivals ~classes =
  (match
     validate ~servers:cfg.servers ~queue_depth:cfg.queue_depth
       ~deadline_us:cfg.deadline_us ~target_p99_us:cfg.target_p99_us
       ?brownout:cfg.brownout ()
   with
  | Error msg -> invalid_arg ("Rig.run: " ^ msg)
  | Ok () -> ());
  let n = Array.length arrivals in
  let config =
    Runtime.machine_config ~heap_bytes:(cfg.heap_mb * 1024 * 1024) ~seed:cfg.seed ()
  in
  let rt = Runtime.create ~config ?policy:cfg.policy ~revoker_core:3 cfg.mode in
  let m = rt.Runtime.machine in
  Machine.attach_tracer m tracer;
  Option.iter (fun f -> f rt) on_runtime;
  let check = if cfg.check then Some (Analysis.Check.attach_runtime rt) else None in
  (* a class's deadline is the base budget stretched by its factor;
     background traffic is never deadline-shed *)
  let deadlines =
    Array.init (List.length Loadgen.all_classes) (fun code ->
        match (cfg.deadline_us, Loadgen.deadline_factor (Loadgen.cls_of_code code)) with
        | Some d, Some f -> Some (int_of_float (float_of_int (Cost.cycles_of_us d) *. f))
        | _ -> None)
  in
  let queue = Squeue.create m ~max_depth:cfg.queue_depth ?brownout:cfg.brownout () in
  let fates =
    { kind = Bytes.make n '\000'; at = Array.make n 0; latency_us = Array.make n 0.0 }
  in
  (* The crash half of lost-in-flight: at each window start the
     Inflight_loss fault drains everything still queued. *)
  let drop_inflight ctx =
    let dropped = Squeue.drain_lost queue ctx in
    let at = Machine.now ctx in
    List.iter (fun (r : Squeue.req) -> set_lost fates r.id ~at) dropped;
    List.length dropped
  in
  let chaos =
    if cfg.windows = [] then None
    else
      Some
        (Chaos.install m ~revoker:rt.Runtime.revoker ~mrs:rt.Runtime.mrs ~drop_inflight
           (crash_schedule cfg))
  in
  let slo = Slo.create ~target_p99_us:cfg.target_p99_us () in
  let gov =
    if cfg.governed && rt.Runtime.revoker <> None then
      Some
        (Governor.install ~target_p99_us:cfg.target_p99_us
           ~p99:(fun () -> Slo.p99_estimate slo)
           ~brownout:(fun () -> Squeue.brownout_active queue)
           rt
           ~depth:(fun () -> Squeue.depth queue)
           ())
    else None
  in
  let shared = sessions () in
  (* arrival positions of served requests, in completion order *)
  let order = Array.make n 0 and n_served = ref 0 in
  let inservice_lost = ref 0 and finished = ref 0 and wall_end = ref 0 in
  (* The generator models the outside world: it releases each request at
     its intended time no matter what the servers are doing — during a
     pause the queue (and the shed count) grows, and every served
     straggler's latency is measured from its intended arrival. *)
  let _generator =
    Machine.spawn m ~name:(cfg.name ^ "-loadgen") ~core:0 ~user:false (fun ctx ->
        ignore (await_sessions shared ctx);
        let base =
          match cfg.clock with After_setup -> Machine.now ctx | Absolute -> 0
        in
        Array.iteri
          (fun i t ->
            let intended = base + t in
            let dt = intended - Machine.now ctx in
            if dt > 0 then Machine.sleep ctx dt;
            Slo.note_offered slo;
            let cls = classes i in
            ignore
              (Squeue.offer queue ctx
                 {
                   Squeue.id = i;
                   intended;
                   cls;
                   deadline = deadlines.(cls);
                   tenant = 0;
                 }))
          arrivals;
        Squeue.close queue ctx)
  in
  let server id =
    Machine.spawn m
      ~name:(Printf.sprintf "%s-server-%d" cfg.name id)
      ~core:(server_core id)
      (fun ctx ->
        let regs = Machine.regs (Machine.self ctx) in
        let rng = Prng.create ~seed:(cfg.seed * 31 * (id + 1)) in
        let table =
          if id = 0 then build_sessions shared rt ctx ~slots:cfg.session_slots
          else await_sessions shared ctx
        in
        let rec serve () =
          (* an idle server is the trough signal *)
          if Squeue.depth queue = 0 then
            Option.iter (fun g -> Governor.maybe_eager g ctx) gov;
          match Squeue.take queue ctx with
          | None -> ()
          | Some req ->
              let started = Machine.now ctx in
              request rt ctx rng regs table ~touches:2 ~compute:cfg.compute_per_req;
              let completed = Machine.now ctx in
              (match crossed_crash cfg.windows ~started ~completed with
              | Some (down, up) ->
                  (* the crash destroyed the response before it left the
                     machine: the work is wasted, the client hears
                     nothing, and this server rides out the outage *)
                  incr inservice_lost;
                  Machine.trace_emit m ~time:completed ~core:(Machine.core_id ctx)
                    ~pid:(Machine.ctx_pid ctx) ~arg2:1 Trace.Req_lost req.Squeue.id;
                  set_lost fates req.Squeue.id ~at:down;
                  let dt = up - Machine.now ctx in
                  if dt > 0 then Machine.sleep ctx dt
              | None ->
                  let lat = Slo.record slo ~intended:req.Squeue.intended ~completed in
                  set_served fates req.Squeue.id ~at:completed ~latency_us:lat;
                  order.(!n_served) <- req.Squeue.id;
                  incr n_served);
              serve ()
        in
        serve ();
        incr finished;
        if !finished = cfg.servers then begin
          wall_end := Machine.now ctx;
          Option.iter Governor.uninstall gov;
          Runtime.finish rt ctx
        end)
  in
  let servers = List.init cfg.servers server in
  Machine.run m;
  List.iter
    (fun ((r : Squeue.req), why, at) -> set_shed fates r.id ~why ~at)
    (Squeue.shed_log queue);
  let lost = Squeue.lost queue + !inservice_lost in
  let settled = ref 0 in
  Bytes.iter (fun k -> if k <> '\000' then incr settled) fates.kind;
  let drift =
    if
      Slo.served slo + Squeue.shed queue + lost = Slo.offered slo
      && Slo.offered slo = n && !settled = n
    then []
    else
      [
        Printf.sprintf
           "%s: accounting drift: served %d + shed %d + lost %d <> arrivals %d (fates %d)"
           cfg.name (Slo.served slo) (Squeue.shed queue) lost n !settled;
      ]
  in
  let clean, report = Analysis.Check.verdict check ~drift in
  let totals = Machine.totals m in
  let phases = Runtime.revoker_records rt in
  let stw_total, stw_max =
    List.fold_left
      (fun (t, mx) p -> (t + p.Revoker.stw_cycles, max mx p.Revoker.stw_cycles))
      (0, 0) phases
  in
  let resumes, crash_retries =
    match rt.Runtime.revoker with
    | Some rv ->
        let rs = Revoker.recovery_stats rv in
        (rs.Revoker.epoch_resumes, rs.Revoker.sweep_crash_retries)
    | None -> (0, 0)
  in
  let result =
    {
      Result.workload = cfg.name;
      mode = Runtime.mode_name cfg.mode;
      wall_cycles = !wall_end;
      cpu_cycles = totals.Machine.cpu_cycles;
      app_cpu_cycles =
        List.fold_left (fun a th -> a + Machine.thread_cpu_cycles th) 0 servers;
      bus_total = totals.Machine.bus_transactions;
      bus_app_core =
        Machine.bus_transactions_of_core m 2 + Machine.bus_transactions_of_core m 3;
      peak_rss_pages = rt.Runtime.alloc.Alloc.Backend.peak_rss_pages ();
      clg_faults = totals.Machine.clg_faults;
      ops_done = Slo.served slo;
      latencies_us = Array.init !n_served (fun k -> fates.latency_us.(order.(k)));
      latencies_closed_us = [||];
      throughput =
        (if !wall_end = 0 then 0.0
         else float_of_int (Slo.served slo) /. (float_of_int !wall_end /. Cost.clock_hz));
      scrub_bytes = rt.Runtime.alloc.Alloc.Backend.scrub_bytes ();
      mrs = Runtime.mrs_stats rt;
      phases;
    }
  in
  {
    result;
    arrivals = n;
    served = Slo.served slo;
    shed_depth = Squeue.shed_depth queue;
    shed_deadline = Squeue.shed_deadline queue;
    shed_brownout = Squeue.shed_brownout queue;
    lost;
    brownout_shifts = Squeue.brownout_shifts queue;
    slo;
    fates;
    epochs = List.length phases;
    stw_pause_us = Cost.cycles_to_us stw_total;
    max_pause_us = Cost.cycles_to_us stw_max;
    epoch_resumes = resumes;
    sweep_crash_retries = crash_retries;
    chaos_injected = Option.fold ~none:0 ~some:Chaos.injected chaos;
    governor = Option.map Governor.stats gov;
    clean;
    report;
  }
