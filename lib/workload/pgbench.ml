module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Runtime = Ccr.Runtime

(* Database size: rows, and history-ring entries. *)
let row_slots = 2_400
let history_slots = 1_200

(* Per transaction: parse/plan temporaries, row lookups, MVCC row
   updates, and executor compute cycles. *)
let temp_allocs_per_tx = 20
let row_reads_per_tx = 30
let updates_per_tx = 3
let compute_per_tx = 40_000

(* Mean client think time between unscheduled transactions, cycles. *)
let client_think = 50_000

(* Leading fraction of transactions excluded from the latency samples. *)
let warmup_fraction = 0.05

type config = { transactions : int; rate : float option; seed : int }

let default_config = { transactions = 6_000; rate = None; seed = 3 }

(* client <-> server mailbox *)
type mailbox = {
  mutable requests : int; (* outstanding request count *)
  mutable completed : int;
  mutable shutdown : bool;
  req_cv : Machine.condvar;
  rep_cv : Machine.condvar;
}

let r_work = 1
let r_temp_base = 4 (* r4.. hold in-flight temporaries *)

let row_size rng = 96 + (Prng.int rng 16 * 16)
let temp_size rng = 64 + (Prng.int rng 28 * 16)

let transaction rt ctx rng regs ~rows ~history ~hist_next =
  (* parse/plan temporaries *)
  let temps =
    Array.init temp_allocs_per_tx (fun i ->
        let c = Runtime.malloc rt ctx (temp_size rng) in
        if i < 8 then Sim.Regfile.set regs (r_temp_base + i) c;
        Machine.store_u64 ctx c (Int64.of_int i);
        (* plan/executor nodes point at each other: capability stores that
           make the temp pages sweep targets *)
        let prev = Sim.Regfile.get regs r_work in
        if Capability.tag prev && Capability.length c >= 32 then
          Machine.store_cap ctx (Capability.incr_addr c 16) prev;
        Sim.Regfile.set regs r_work c;
        c)
  in
  (* B-tree style row lookups *)
  for _ = 1 to row_reads_per_tx do
    match Objtable.random_live rows rng ~hot:0.2 ~weight:0.7 with
    | None -> ()
    | Some slot ->
        let c = Objtable.get rows ctx slot in
        if Capability.tag c then begin
          Sim.Regfile.set regs r_work c;
          ignore (Machine.load_u64 ctx c);
          ignore (Machine.load_u64 ctx (Capability.incr_addr c 32))
        end
  done;
  (* MVCC updates: allocate the new row version, free the old *)
  for _ = 1 to updates_per_tx do
    match Objtable.random_live rows rng ~hot:0.2 ~weight:0.7 with
    | None -> ()
    | Some slot ->
        let old = Objtable.get rows ctx slot in
        let nv = Runtime.malloc rt ctx (row_size rng) in
        Machine.store_u64 ctx nv 42L;
        (* a row version keeps a pointer to its predecessor (MVCC chain) *)
        if Capability.tag old && Capability.length nv >= 32 then
          Machine.store_cap ctx (Capability.incr_addr nv 16) old;
        Objtable.put rows ctx slot nv ~size:(Capability.length nv);
        if Capability.tag old then begin
          Sim.Regfile.set regs r_work old;
          Runtime.free rt ctx old;
          Sim.Regfile.set regs r_work Capability.null
        end
  done;
  (* history insert into a ring *)
  let h = !hist_next in
  hist_next := (h + 1) mod Objtable.slots history;
  if Objtable.is_live history h then begin
    let old = Objtable.get history ctx h in
    if Capability.tag old then Runtime.free rt ctx old;
    Objtable.kill history h
  end;
  let entry = Runtime.malloc rt ctx 96 in
  Machine.store_u64 ctx entry (Int64.of_int h);
  Objtable.put history ctx h entry ~size:96;
  (* WAL write *)
  Kernel.Syscall.perform_service ctx ~service:8_000;
  (* executor compute *)
  Machine.charge ctx compute_per_tx;
  (* commit: free temporaries *)
  Array.iter (fun c -> Runtime.free rt ctx c) temps;
  for i = 0 to 7 do
    Sim.Regfile.set regs (r_temp_base + i) Capability.null
  done

let run ?(config = default_config) ?tracer ~mode () =
  let cfg = config in
  let rt =
    Runtime.create
      ~config:(Runtime.machine_config ~heap_bytes:(8 * 1024 * 1024) ~seed:cfg.seed ())
      ~revoker_core:2 mode
  in
  let m = rt.Runtime.machine in
  Machine.attach_tracer m tracer;
  let rng_server = Prng.create ~seed:(cfg.seed * 131) in
  let rng_client = Prng.create ~seed:(cfg.seed * 257) in
  let box =
    {
      requests = 0;
      completed = 0;
      shutdown = false;
      req_cv = Machine.condvar ();
      rep_cv = Machine.condvar ();
    }
  in
  let latencies = ref [] in
  let warmup = int_of_float (warmup_fraction *. float_of_int cfg.transactions) in
  let wall_end = ref 0 in
  let server =
    Machine.spawn m ~name:"pgserver" ~core:3 (fun ctx ->
        let regs = Machine.regs (Machine.self ctx) in
        let rows = Objtable.create rt ctx ~slots:row_slots in
        for slot = 0 to row_slots - 1 do
          let c = Runtime.malloc rt ctx (row_size rng_server) in
          Machine.store_u64 ctx c (Int64.of_int slot);
          Objtable.put rows ctx slot c ~size:(Capability.length c)
        done;
        let history = Objtable.create rt ctx ~slots:history_slots in
        let hist_next = ref 0 in
        let rec serve () =
          while box.requests = 0 && not box.shutdown do
            Machine.wait ctx box.req_cv
          done;
          if box.requests > 0 then begin
            box.requests <- box.requests - 1;
            transaction rt ctx rng_server regs ~rows ~history ~hist_next;
            box.completed <- box.completed + 1;
            Machine.broadcast ctx box.rep_cv;
            serve ()
          end
        in
        serve ();
        wall_end := Machine.now ctx;
        Runtime.finish rt ctx)
  in
  let _client =
    Machine.spawn m ~name:"pgclient" ~core:0 (fun ctx ->
        let interval =
          match cfg.rate with
          | Some r -> Some (int_of_float (Sim.Cost.clock_hz /. r))
          | None -> None
        in
        let start = Machine.now ctx in
        for i = 0 to cfg.transactions - 1 do
          let t0 =
            match interval with
            | Some iv ->
                let sched = start + (i * iv) in
                let now = Machine.now ctx in
                if now < sched then Machine.sleep ctx (sched - now);
                sched (* latency from scheduled start, ignoring lag *)
            | None -> Machine.now ctx
          in
          let target = box.completed + 1 in
          box.requests <- box.requests + 1;
          Machine.broadcast ctx box.req_cv;
          while box.completed < target do
            Machine.wait ctx box.rep_cv
          done;
          let lat = Machine.now ctx - t0 in
          if i >= warmup then
            latencies := Sim.Cost.cycles_to_us lat :: !latencies;
          (* client-side processing / think time *)
          match interval with
          | Some _ -> ()
          | None ->
              let think =
                int_of_float
                  (Prng.exponential rng_client ~mean:(float_of_int client_think))
              in
              Machine.charge ctx 2_000;
              Machine.sleep ctx think
        done;
        box.shutdown <- true;
        Machine.broadcast ctx box.req_cv)
  in
  Machine.run m;
  let totals = Machine.totals m in
  let lats = Array.of_list (List.rev !latencies) in
  {
    Result.workload = (match cfg.rate with
      | None -> "pgbench"
      | Some r -> Printf.sprintf "pgbench@%.0f" r);
    mode = Runtime.mode_name mode;
    wall_cycles = !wall_end;
    cpu_cycles = totals.Machine.cpu_cycles;
    app_cpu_cycles = Machine.thread_cpu_cycles server;
    bus_total = totals.Machine.bus_transactions;
    bus_app_core = Machine.bus_transactions_of_core m 3;
    peak_rss_pages = rt.Runtime.alloc.Alloc.Backend.peak_rss_pages ();
    clg_faults = totals.Machine.clg_faults;
    ops_done = cfg.transactions;
    latencies_us = lats;
    latencies_closed_us = [||];
    throughput =
      float_of_int cfg.transactions
      /. (float_of_int !wall_end /. Sim.Cost.clock_hz);
    scrub_bytes = rt.Runtime.alloc.Alloc.Backend.scrub_bytes ();
    mrs = Runtime.mrs_stats rt;
    phases = Runtime.revoker_records rt;
  }
