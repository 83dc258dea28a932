module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Cost = Sim.Cost
module Runtime = Ccr.Runtime
module Loadgen = Service.Loadgen
module Squeue = Service.Squeue
module Slo = Service.Slo
module Governor = Service.Governor

(* Heap every serving run gets. *)
let heap_mb = 24

(* Cycles of compute per request. *)
let compute_per_req = 30_000

type config = {
  pattern : Loadgen.pattern;
  requests : int;
  servers : int;
  queue_depth : int;
  deadline_us : float option;
  target_p99_us : float;
  session_slots : int;
  seed : int;
}

let default_config =
  {
    pattern = Loadgen.Poisson 20_000.0;
    requests = 6_000;
    servers = 2;
    queue_depth = 64;
    deadline_us = None;
    target_p99_us = 1_000.0;
    session_slots = 20_000;
    seed = 11;
  }

(* [not (x > 0.0)] also turns NaN away *)
let validate cfg =
  if cfg.servers < 1 then
    Error (Printf.sprintf "need at least one server (got %d)" cfg.servers)
  else if cfg.queue_depth < 1 then
    Error (Printf.sprintf "queue depth must be at least 1 (got %d)" cfg.queue_depth)
  else
    match cfg.deadline_us with
    | Some d when not (d > 0.0) ->
        Error (Printf.sprintf "deadline must be positive (got %g us)" d)
    | _ when not (cfg.target_p99_us > 0.0) ->
        Error (Printf.sprintf "p99 target must be positive (got %g us)" cfg.target_p99_us)
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

(* ---- the serving run ---- *)

type outcome = {
  result : Result.t;
  offered : int;
  served : int;
  shed_depth : int;
  shed_deadline : int;
  slo : Slo.t;
  governor : Governor.stats option;
}

(* Servers round-robin over cores 2, 3, 1: the first two land where the
   gRPC surrogate puts them, with the revoker sharing core 3 so
   revocation competes with foreground service. Core 0 is the
   generator's. *)
let server_core i = [| 2; 3; 1 |].(i mod 3)

let run ?(config = default_config) ?tracer ?on_runtime ?(governed = false) ~mode () =
  let cfg = config in
  (match validate cfg with Error msg -> invalid_arg ("Serve.run: " ^ msg) | Ok () -> ());
  let arrivals =
    Loadgen.schedule { Loadgen.pattern = cfg.pattern; requests = cfg.requests; seed = cfg.seed }
  in
  let machine = Runtime.machine_config ~heap_bytes:(heap_mb * 1024 * 1024) ~seed:cfg.seed () in
  let rt = Runtime.create ~config:machine ~revoker_core:3 mode in
  let m = rt.Runtime.machine in
  Machine.attach_tracer m tracer;
  Option.iter (fun f -> f rt) on_runtime;
  let deadline = Option.map Cost.cycles_of_us cfg.deadline_us in
  let queue = Squeue.create m ~max_depth:cfg.queue_depth () in
  let slo = Slo.create ~target_p99_us:cfg.target_p99_us () in
  let gov =
    if governed && rt.Runtime.revoker <> None then
      Some
        (Governor.install ~target_p99_us:cfg.target_p99_us
           ~p99:(fun () -> Slo.p99_estimate slo)
           rt
           ~depth:(fun () -> Squeue.depth queue)
           ())
    else None
  in
  let shared = sessions () in
  (* latencies of served requests, in completion order *)
  let latencies = Array.make (Array.length arrivals) 0.0 and n_served = ref 0 in
  let finished = ref 0 and wall_end = ref 0 in
  (* The generator models the outside world: it releases each request at
     its intended time no matter what the servers are doing — during a
     pause the queue (and the shed count) grows, and every served
     straggler's latency is measured from its intended arrival. *)
  let _generator =
    Machine.spawn m ~name:"serve-loadgen" ~core:0 ~user:false (fun ctx ->
        ignore (await_sessions shared ctx);
        let base = Machine.now ctx in
        Array.iteri
          (fun i t ->
            let intended = base + t in
            let dt = intended - Machine.now ctx in
            if dt > 0 then Machine.sleep ctx dt;
            Slo.note_offered slo;
            ignore (Squeue.offer queue ctx { Squeue.id = i; intended; deadline; tenant = 0 }))
          arrivals;
        Squeue.close queue ctx)
  in
  let server id =
    Machine.spawn m
      ~name:(Printf.sprintf "serve-server-%d" id)
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
              request rt ctx rng regs table ~touches:2 ~compute:compute_per_req;
              latencies.(!n_served) <-
                Slo.record slo ~intended:req.Squeue.intended ~completed:(Machine.now ctx);
              incr n_served;
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
  let totals = Machine.totals m in
  let served = Slo.served slo in
  let result =
    {
      Result.workload = "serve";
      mode = Runtime.mode_name mode;
      wall_cycles = !wall_end;
      cpu_cycles = totals.Machine.cpu_cycles;
      app_cpu_cycles =
        List.fold_left (fun a th -> a + Machine.thread_cpu_cycles th) 0 servers;
      bus_total = totals.Machine.bus_transactions;
      bus_app_core =
        Machine.bus_transactions_of_core m 2 + Machine.bus_transactions_of_core m 3;
      peak_rss_pages = rt.Runtime.alloc.Alloc.Backend.peak_rss_pages ();
      clg_faults = totals.Machine.clg_faults;
      ops_done = served;
      latencies_us = Array.sub latencies 0 !n_served;
      latencies_closed_us = [||];
      throughput =
        (if !wall_end = 0 then 0.0
         else float_of_int served /. (float_of_int !wall_end /. Cost.clock_hz));
      scrub_bytes = rt.Runtime.alloc.Alloc.Backend.scrub_bytes ();
      mrs = Runtime.mrs_stats rt;
      phases = Runtime.revoker_records rt;
    }
  in
  {
    result;
    offered = Slo.offered slo;
    served;
    shed_depth = Squeue.shed_depth queue;
    shed_deadline = Squeue.shed_deadline queue;
    slo;
    governor = Option.map Governor.stats gov;
  }
