module Machine = Sim.Machine
module Prng = Sim.Prng
module Runtime = Ccr.Runtime

(* Pipelined requests each client thread keeps outstanding. *)
let outstanding = 16

(* Cycles of compute per message. *)
let compute_per_msg = 50_000

(* Leading fraction of messages excluded from the latency samples. *)
let warmup_fraction = 0.05

type config = { messages : int; session_slots : int; seed : int }

let default_config = { messages = 24_000; session_slots = 20_000; seed = 9 }

type request = { id : int; intended : int; submitted : int; client : int }

type shared = {
  mutable queue : request list; (* newest first *)
  mutable submitted : int;
  mutable completed : int;
  mutable inflight : int array;
  req_cv : Machine.condvar;
  done_cv : Machine.condvar;
  sessions : Rig.sessions;
  mutable finished_servers : int;
}

let run ?(config = default_config) ?tracer ~mode () =
  let cfg = config in
  (* The revoker shares core 3 with a server thread: unlike the pinned
     regimes, revocation competes directly with foreground work. *)
  let rt =
    Runtime.create
      ~config:(Runtime.machine_config ~heap_bytes:(24 * 1024 * 1024) ~seed:cfg.seed ())
      ~revoker_core:3 mode
  in
  let m = rt.Runtime.machine in
  Machine.attach_tracer m tracer;
  let sh =
    {
      queue = [];
      submitted = 0;
      completed = 0;
      inflight = [| 0; 0 |];
      req_cv = Machine.condvar ();
      done_cv = Machine.condvar ();
      sessions = Rig.sessions ();
      finished_servers = 0;
    }
  in
  let latencies = ref [] and latencies_closed = ref [] in
  let warmup = int_of_float (warmup_fraction *. float_of_int cfg.messages) in
  let wall_end = ref 0 in
  let server id core =
    Machine.spawn m ~name:(Printf.sprintf "grpc-server-%d" id) ~core (fun ctx ->
        let regs = Machine.regs (Machine.self ctx) in
        let rng = Prng.create ~seed:(cfg.seed * 31 * (id + 1)) in
        let sessions =
          if id = 0 then Rig.build_sessions sh.sessions rt ctx ~slots:cfg.session_slots
          else Rig.await_sessions sh.sessions ctx
        in
        let rec serve () =
          while sh.queue = [] && sh.completed + List.length sh.queue < cfg.messages
                && sh.submitted < cfg.messages do
            Machine.wait ctx sh.req_cv
          done;
          match sh.queue with
          | [] -> () (* all messages submitted and drained *)
          | req :: rest ->
              sh.queue <- rest;
              Rig.request rt ctx rng regs sessions ~touches:3 ~compute:compute_per_msg;
              sh.completed <- sh.completed + 1;
              let now = Machine.now ctx in
              if req.id >= warmup then begin
                latencies := Sim.Cost.cycles_to_us (now - req.intended) :: !latencies;
                latencies_closed :=
                  Sim.Cost.cycles_to_us (now - req.submitted) :: !latencies_closed
              end;
              sh.inflight.(req.client) <- sh.inflight.(req.client) - 1;
              Machine.broadcast ctx sh.done_cv;
              serve ()
        in
        serve ();
        sh.finished_servers <- sh.finished_servers + 1;
        Machine.broadcast ctx sh.req_cv;
        if sh.finished_servers = 2 then begin
          wall_end := Machine.now ctx;
          Runtime.finish rt ctx
        end)
  in
  let client id core =
    Machine.spawn m ~name:(Printf.sprintf "grpc-client-%d" id) ~core (fun ctx ->
        let quota = cfg.messages / 2 in
        for _ = 1 to quota do
          (* Coordinated-omission correction: stamp the intended issue
             time BEFORE waiting out the outstanding window. When the
             server stalls (e.g. a stop-the-world pause), the wait below
             grows and the difference shows up in the corrected latency
             instead of silently thinning the sample stream. *)
          Machine.charge ctx 1_500;
          let intended = Machine.now ctx in
          while sh.inflight.(id) >= outstanding do
            Machine.wait ctx sh.done_cv
          done;
          let req =
            { id = sh.submitted; intended; submitted = Machine.now ctx; client = id }
          in
          sh.submitted <- sh.submitted + 1;
          sh.inflight.(id) <- sh.inflight.(id) + 1;
          sh.queue <- sh.queue @ [ req ];
          Machine.broadcast ctx sh.req_cv
        done)
  in
  let s0 = server 0 2 in
  let s1 = server 1 3 in
  let _c0 = client 0 0 in
  let _c1 = client 1 1 in
  Machine.run m;
  let totals = Machine.totals m in
  {
    Result.workload = "grpc_qps";
    mode = Runtime.mode_name mode;
    wall_cycles = !wall_end;
    cpu_cycles = totals.Machine.cpu_cycles;
    app_cpu_cycles = Machine.thread_cpu_cycles s0 + Machine.thread_cpu_cycles s1;
    bus_total = totals.Machine.bus_transactions;
    bus_app_core =
      Machine.bus_transactions_of_core m 2 + Machine.bus_transactions_of_core m 3;
    peak_rss_pages = rt.Runtime.alloc.Alloc.Backend.peak_rss_pages ();
    clg_faults = totals.Machine.clg_faults;
    ops_done = cfg.messages;
    latencies_us = Array.of_list (List.rev !latencies);
    latencies_closed_us = Array.of_list (List.rev !latencies_closed);
    throughput =
      float_of_int cfg.messages /. (float_of_int !wall_end /. Sim.Cost.clock_hz);
    scrub_bytes = rt.Runtime.alloc.Alloc.Backend.scrub_bytes ();
    mrs = Runtime.mrs_stats rt;
    phases = Runtime.revoker_records rt;
  }
