module Capability = Cheri.Capability
module Machine = Sim.Machine
module Trace = Sim.Trace
module Epoch = Ccr.Epoch
module Revoker = Ccr.Revoker
module Revmap = Ccr.Revmap
module Pmap = Vm.Pmap
module Phys = Vm.Phys
module Pte = Vm.Pte

type violation = {
  v_rule : string;
  v_time : int;
  v_core : int;
  v_pid : int;
  v_detail : string;
}

(* Quarantine lifecycle of one freed region, mirrored from the event
   stream. [Cleared] regions await their [Reuse] event, which drops them
   from the table. *)
type state = Painted | Enqueued | Dequarantined | Cleared

let state_name = function
  | Painted -> "painted"
  | Enqueued -> "enqueued"
  | Dequarantined -> "dequarantined"
  | Cleared -> "cleared"

type region = {
  r_size : int;
  mutable r_painted_at : int;
      (* epoch counter when painted; clamped down on epoch abort *)
  mutable r_state : state;
}

(* One quota-charged allocation, mirrored from the ledger's event
   stream. [q_quarantined] flips when the region's [Paint] arrives; the
   entry leaves the table on [Quota_credit] — or on [Reuse], which is a
   conservation violation: memory left quarantine without its owner
   being refunded. *)
type qalloc = { q_size : int; mutable q_quarantined : bool }

let max_stored = 200

(* All shadow state is partitioned by process: each pid's revocation
   pipeline is an independent protocol instance with its own epoch
   counter, region table and byte accounts. Events carry the owning pid
   (0 for single-process runs, which therefore see exactly one
   partition). *)
type pstate = {
  pid : int;
  mutable revoker : Revoker.t option;
  regions : (int, region) Hashtbl.t;
  mutable counter : int; (* mirrored epoch counter *)
  mutable in_epoch : bool;
  mutable begin_arg : int;
  mutable in_stw : bool;
  (* per-epoch event counts, reset at [Epoch_begin] *)
  mutable ep_sweeps : int;
  mutable ep_shootdowns : int;
  mutable ep_hoard_scans : int;
  mutable ep_clg_toggles : int;
  (* independent byte accounts: event-derived vs. region-table-derived *)
  mutable painted_bytes : int;
  mutable unpainted_bytes : int;
  (* regions quarantined when the current epoch began, sorted by base *)
  mutable snapshot : (int * int) array;
  (* quota-ledger mirror: this pid as a tenant. The conservation
     identity charged − credited = live + quarantined is re-checked at
     every quota event. *)
  q_allocs : (int, qalloc) Hashtbl.t;
  mutable q_charged : int;
  mutable q_credited : int;
  mutable q_live : int;
  mutable q_quarantined : int;
}

type t = {
  mutable m : Machine.t;
  mutable tracer : Trace.t;
  mutable sub : int option;
  pstates : (int, pstate) Hashtbl.t;
  mutable stored : violation list; (* newest first, capped *)
  mutable total : int;
  counts : (string, int) Hashtbl.t;
}

let fresh_pstate pid =
  {
    pid;
    revoker = None;
    regions = Hashtbl.create 1024;
    counter = 0;
    in_epoch = false;
    begin_arg = 0;
    in_stw = false;
    ep_sweeps = 0;
    ep_shootdowns = 0;
    ep_hoard_scans = 0;
    ep_clg_toggles = 0;
    painted_bytes = 0;
    unpainted_bytes = 0;
    snapshot = [||];
    q_allocs = Hashtbl.create 64;
    q_charged = 0;
    q_credited = 0;
    q_live = 0;
    q_quarantined = 0;
  }

let pstate t pid =
  match Hashtbl.find_opt t.pstates pid with
  | Some ps -> ps
  | None ->
      let ps = fresh_pstate pid in
      Hashtbl.replace t.pstates pid ps;
      ps

let register_process t ~pid ?revoker () =
  let ps = pstate t pid in
  ps.revoker <- revoker

let strategy ps = Option.map Revoker.strategy ps.revoker

let violation t ~time ~core ~pid rule detail =
  t.total <- t.total + 1;
  Hashtbl.replace t.counts rule
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts rule));
  if t.total <= max_stored then
    t.stored <-
      { v_rule = rule; v_time = time; v_core = core; v_pid = pid;
        v_detail = detail }
      :: t.stored

(* ---- snapshot of quarantined regions, with binary search ---- *)

let take_snapshot ps =
  let acc = ref [] in
  Hashtbl.iter
    (fun addr r ->
      match r.r_state with
      | Painted | Enqueued -> acc := (addr, r.r_size) :: !acc
      | Dequarantined | Cleared -> ())
    ps.regions;
  let a = Array.of_list !acc in
  Array.sort (fun (x, _) (y, _) -> compare x y) a;
  ps.snapshot <- a

let in_snapshot ps a =
  let s = ps.snapshot in
  let n = Array.length s in
  if n = 0 then None
  else begin
    (* greatest base <= a *)
    let lo = ref 0 and hi = ref (n - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let base, _ = s.(mid) in
      if base <= a then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !best < 0 then None
    else
      let base, size = s.(!best) in
      if a < base + size then Some (base, size) else None
  end

(* The address space a pid's memory lives in: preferably its revoker's
   binding, else any live thread's, else (pid 0) the machine's initial
   space. *)
let aspace_of t ps =
  match ps.revoker with
  | Some rv -> Some (Revoker.aspace rv)
  | None -> (
      match Machine.aspace_of_pid t.m ps.pid with
      | Some a -> Some a
      | None -> if ps.pid = 0 then Some (Machine.aspace t.m) else None)

(* ---- end-of-epoch shadow sweep (host-side, zero simulated cost) ---- *)

let sweep_stale t ps ~time ~core =
  if Array.length ps.snapshot > 0 then begin
    let v = violation t ~time ~core ~pid:ps.pid in
    let mem = Machine.mem t.m in
    (match aspace_of t ps with
    | None -> ()
    | Some asp ->
        Pmap.iter (Vm.Aspace.pmap asp) ~f:(fun vpage pte ->
            let base = Phys.frame_addr pte.Pte.frame in
            Tagmem.Mem.iter_granules mem ~lo:base ~hi:(base + Phys.page_size)
              (fun pa tagged ->
                if tagged then
                  let c = Tagmem.Mem.read_cap mem pa in
                  match in_snapshot ps (Capability.base c) with
                  | Some (rbase, _) ->
                      let st =
                        match Hashtbl.find_opt ps.regions rbase with
                        | Some r -> state_name r.r_state
                        | None -> "gone"
                      in
                      let painted =
                        match ps.revoker with
                        | Some rv ->
                            if
                              Revmap.test_host (Revoker.revmap rv)
                                (Capability.base c)
                            then "painted"
                            else "unpainted"
                        | None -> "?"
                      in
                      v "stale-cap-memory"
                        (Printf.sprintf
                           "pa 0x%x (vpage 0x%x) holds cap 0x%x into \
                            quarantined 0x%x (%s, bitmap %s) after epoch %d"
                           pa vpage (Capability.base c) rbase st painted
                           ps.counter)
                  | None -> ())));
    List.iter
      (fun th ->
        if Machine.thread_pid th = ps.pid then
          Sim.Regfile.iteri (Machine.regs th) (fun i c ->
              if Capability.tag c then
                match in_snapshot ps (Capability.base c) with
                | Some (rbase, _) ->
                    v "stale-cap-regfile"
                      (Printf.sprintf
                         "%s r%d holds cap into quarantined 0x%x after epoch \
                          %d"
                         (Machine.thread_name th) i rbase ps.counter)
                | None -> ()))
      (Machine.user_threads t.m);
    match ps.revoker with
    | None -> ()
    | Some rv ->
        Kernel.Hoard.iter (Revoker.hoards rv) ~f:(fun h c ->
            if Capability.tag c then
              match in_snapshot ps (Capability.base c) with
              | Some (rbase, _) ->
                  v "stale-cap-hoard"
                    (Printf.sprintf
                       "hoard handle %d holds cap into quarantined 0x%x \
                        after epoch %d"
                       h rbase ps.counter)
              | None -> ())
  end

let table_bytes ps =
  Hashtbl.fold
    (fun _ r acc ->
      match r.r_state with
      | Painted | Enqueued | Dequarantined -> acc + r.r_size
      | Cleared -> acc)
    ps.regions 0

let check_accounting t ps ~time ~core =
  let v = violation t ~time ~core ~pid:ps.pid in
  let live = table_bytes ps in
  let net = ps.painted_bytes - ps.unpainted_bytes in
  if live <> net then
    v "quarantine-accounting"
      (Printf.sprintf
         "painted-unpainted = %d bytes but region table holds %d" net live);
  match ps.revoker with
  | None -> ()
  | Some rv ->
      let bitmap = Revmap.set_bits (Revoker.revmap rv) * 16 in
      if bitmap <> net then
        v "quarantine-accounting"
          (Printf.sprintf "revocation bitmap holds %d bytes, events say %d"
             bitmap net)

(* Per-tenant quota conservation: charged − credited must equal the
   bytes still held (live + quarantined) after every quota event. The
   identity can only drift through a protocol violation (double charge,
   credit for an unknown region, reuse without credit), each of which is
   also reported individually under the same rule. *)
let check_quota t ps ~time ~core =
  if ps.q_charged <> 0 || ps.q_credited <> 0 then begin
    let held = ps.q_live + ps.q_quarantined in
    if ps.q_charged - ps.q_credited <> held then
      violation t ~time ~core ~pid:ps.pid "quota-conservation"
        (Printf.sprintf
           "charged %d - credited %d = %d bytes but live %d + quarantined %d \
            = %d"
           ps.q_charged ps.q_credited
           (ps.q_charged - ps.q_credited)
           ps.q_live ps.q_quarantined held)
  end

(* Fork: the child's copy-on-write bitmap carries every bit the parent's
   did, and the kernel re-enqueues the parent's still-quarantined
   regions in the child's shim. Mirror that here: the parent's regions
   that are still in quarantine start a fresh [Painted] life in the
   child's partition. *)
let on_fork t parent_ps ~child_pid =
  let child = pstate t child_pid in
  Hashtbl.iter
    (fun addr (r : region) ->
      match r.r_state with
      | Painted | Enqueued | Dequarantined ->
          Hashtbl.replace child.regions addr
            { r_size = r.r_size; r_painted_at = child.counter;
              r_state = Painted };
          child.painted_bytes <- child.painted_bytes + r.r_size
      | Cleared -> ())
    parent_ps.regions

(* ---- per-event transition function ---- *)

let on_event t (e : Trace.event) =
  let time = e.Trace.time and core = e.Trace.core in
  let ps = pstate t e.Trace.pid in
  let v = violation t ~time ~core ~pid:ps.pid in
  match e.Trace.kind with
  | Trace.Stw_stopped -> ps.in_stw <- true
  | Trace.Stw_release -> ps.in_stw <- false
  | Trace.Epoch_begin ->
      let arg = e.Trace.arg in
      if ps.in_epoch then v "epoch-unbalanced" "Epoch_begin inside an epoch";
      if arg land 1 <> 0 then
        v "epoch-parity" (Printf.sprintf "epoch begins at odd counter %d" arg);
      if arg <> ps.counter then
        v "epoch-monotonic"
          (Printf.sprintf "epoch begins at %d, expected counter %d" arg
             ps.counter);
      ps.in_epoch <- true;
      ps.begin_arg <- arg;
      ps.counter <- arg + 1;
      ps.ep_sweeps <- 0;
      ps.ep_shootdowns <- 0;
      ps.ep_hoard_scans <- 0;
      ps.ep_clg_toggles <- 0;
      take_snapshot ps
  | Trace.Epoch_end ->
      let arg = e.Trace.arg in
      if not ps.in_epoch then v "epoch-unbalanced" "Epoch_end outside an epoch";
      if arg land 1 <> 0 then
        v "epoch-parity" (Printf.sprintf "epoch ends at odd counter %d" arg);
      if ps.in_epoch && arg <> ps.begin_arg + 2 then
        v "epoch-monotonic"
          (Printf.sprintf "epoch began at %d but ends at %d" ps.begin_arg arg);
      ps.counter <- arg;
      ps.in_epoch <- false;
      (match strategy ps with
      | Some Revoker.Cornucopia ->
          if ps.ep_sweeps > 0 && ps.ep_shootdowns = 0 then
            v "missing-shootdown"
              (Printf.sprintf
                 "Cornucopia epoch swept %d pages with no TLB shootdown"
                 ps.ep_sweeps)
      | _ -> ());
      (match ps.revoker with
      | Some rv when Revoker.strategy rv <> Revoker.Paint_sync ->
          if
            Kernel.Hoard.size (Revoker.hoards rv) > 0
            && ps.ep_hoard_scans = 0
          then
            v "missing-hoard-scan"
              (Printf.sprintf
                 "epoch ended with %d hoarded capabilities never scanned"
                 (Kernel.Hoard.size (Revoker.hoards rv)))
      | Some _ | None -> ());
      (match strategy ps with
      | Some Revoker.Paint_sync | None -> ()
      | Some _ -> sweep_stale t ps ~time ~core);
      check_accounting t ps ~time ~core;
      ps.snapshot <- [||]
  | Trace.Paint -> (
      let addr = e.Trace.arg and size = e.Trace.arg2 in
      (match Hashtbl.find_opt ps.q_allocs addr with
      | Some q when not q.q_quarantined ->
          q.q_quarantined <- true;
          ps.q_live <- ps.q_live - q.q_size;
          ps.q_quarantined <- ps.q_quarantined + q.q_size
      | Some _ | None -> ());
      match Hashtbl.find_opt ps.regions addr with
      | Some r when r.r_state <> Cleared ->
          v "double-paint"
            (Printf.sprintf "0x%x painted while already %s" addr
               (state_name r.r_state));
          ps.painted_bytes <- ps.painted_bytes + size
      | Some _ | None ->
          Hashtbl.replace ps.regions addr
            { r_size = size; r_painted_at = ps.counter; r_state = Painted };
          ps.painted_bytes <- ps.painted_bytes + size)
  | Trace.Unpaint -> (
      let addr = e.Trace.arg and size = e.Trace.arg2 in
      ps.unpainted_bytes <- ps.unpainted_bytes + size;
      match Hashtbl.find_opt ps.regions addr with
      | None ->
          v "unpaint-not-dequarantined"
            (Printf.sprintf "0x%x cleared but never painted" addr)
      | Some r ->
          if r.r_state <> Dequarantined then
            v "unpaint-not-dequarantined"
              (Printf.sprintf "0x%x cleared while %s" addr
                 (state_name r.r_state));
          r.r_state <- Cleared)
  | Trace.Quarantine_enq -> (
      let addr = e.Trace.arg in
      match Hashtbl.find_opt ps.regions addr with
      | Some ({ r_state = Painted; _ } as r) -> r.r_state <- Enqueued
      | Some r ->
          v "enqueue-unpainted"
            (Printf.sprintf "0x%x enqueued while %s" addr (state_name r.r_state))
      | None ->
          v "enqueue-unpainted"
            (Printf.sprintf "0x%x enqueued but never painted" addr))
  | Trace.Quarantine_deq -> (
      let addr = e.Trace.arg in
      match Hashtbl.find_opt ps.regions addr with
      | Some ({ r_state = Enqueued; _ } as r) ->
          if ps.counter < Epoch.clean_target r.r_painted_at then
            v "early-dequarantine"
              (Printf.sprintf
                 "0x%x painted at epoch %d left quarantine at %d (clean \
                  target %d)"
                 addr r.r_painted_at ps.counter
                 (Epoch.clean_target r.r_painted_at));
          r.r_state <- Dequarantined
      | Some r ->
          v "dequeue-not-enqueued"
            (Printf.sprintf "0x%x dequeued while %s" addr (state_name r.r_state))
      | None ->
          v "dequeue-not-enqueued"
            (Printf.sprintf "0x%x dequeued but never painted" addr))
  | Trace.Reuse -> (
      let addr = e.Trace.arg in
      (* A quota-tracked region leaving quarantine must have been
         credited first ([Quota_credit] precedes [Reuse] by contract).
         If it is still in the mirror, its owner was never refunded.
         Repair the mirror as if the credit had happened so a single
         skipped credit reports exactly once. *)
      (match Hashtbl.find_opt ps.q_allocs addr with
      | Some q ->
          v "quota-conservation"
            (Printf.sprintf
               "0x%x (%d bytes charged to pid %d) left quarantine without a \
                quota credit"
               addr q.q_size ps.pid);
          ps.q_credited <- ps.q_credited + q.q_size;
          if q.q_quarantined then
            ps.q_quarantined <- ps.q_quarantined - q.q_size
          else ps.q_live <- ps.q_live - q.q_size;
          Hashtbl.remove ps.q_allocs addr
      | None -> ());
      match Hashtbl.find_opt ps.regions addr with
      | None -> v "early-reuse" (Printf.sprintf "0x%x reused, never painted" addr)
      | Some r ->
          (match r.r_state with
          | Painted | Enqueued ->
              v "early-reuse"
                (Printf.sprintf "0x%x reused while still %s" addr
                   (state_name r.r_state))
          | Dequarantined | Cleared ->
              if ps.counter < Epoch.clean_target r.r_painted_at then
                v "early-reuse"
                  (Printf.sprintf
                     "0x%x painted at epoch %d reused at %d (clean target %d)"
                     addr r.r_painted_at ps.counter
                     (Epoch.clean_target r.r_painted_at)));
          Hashtbl.remove ps.regions addr)
  | Trace.Tlb_shootdown -> ps.ep_shootdowns <- ps.ep_shootdowns + 1
  | Trace.Hoard_scan -> ps.ep_hoard_scans <- ps.ep_hoard_scans + 1
  | Trace.Page_sweep -> ps.ep_sweeps <- ps.ep_sweeps + 1
  | Trace.Clg_toggle -> (
      ps.ep_clg_toggles <- ps.ep_clg_toggles + 1;
      if not ps.in_stw then
        v "clg-toggle-outside-stw"
          "capability-load generation flipped without the world stopped";
      if ps.ep_clg_toggles > 1 then
        v "clg-double-toggle"
          (Printf.sprintf "generation flipped %d times in one epoch"
             ps.ep_clg_toggles);
      (* Only cores running this process's address space adopt the new
         generation; they must all agree with the page map's. *)
      match aspace_of t ps with
      | None -> ()
      | Some asp ->
          let asid = Vm.Aspace.asid asp in
          let gen = Pmap.generation (Vm.Aspace.pmap asp) in
          for i = 0 to Machine.num_cores t.m - 1 do
            if Machine.core_asid t.m i = asid && Machine.core_clg t.m i <> gen
            then
              v "clg-core-disagreement"
                (Printf.sprintf
                   "core %d generation differs from pid %d's page map after \
                    toggle"
                   i ps.pid)
          done)
  | Trace.Proc_fork -> on_fork t ps ~child_pid:e.Trace.arg
  | Trace.Epoch_abort ->
      (* The epoch was retracted: the on-machine counter moved back to the
         pre-begin (even) value without the epoch's work completing. Roll
         the mirror back too and clamp any paint stamp recorded during the
         aborted epoch — those stamps are now "from the future" and would
         otherwise mark sound later deliveries as early. Clamping is the
         exact mirror of what the shim does to its batch stamps: regions
         painted before the retried epoch begins are covered by it just
         like anything painted at the restored counter. *)
      let arg = e.Trace.arg in
      if not ps.in_epoch then
        v "epoch-unbalanced" "Epoch_abort outside an epoch";
      if arg land 1 <> 0 then
        v "epoch-parity" (Printf.sprintf "epoch aborts to odd counter %d" arg);
      if ps.in_epoch && arg <> ps.begin_arg then
        v "epoch-monotonic"
          (Printf.sprintf "epoch began at %d but aborts to %d" ps.begin_arg arg);
      ps.counter <- arg;
      ps.in_epoch <- false;
      ps.snapshot <- [||];
      Hashtbl.iter
        (fun _ (r : region) ->
          if r.r_painted_at > arg then r.r_painted_at <- arg)
        ps.regions
  | Trace.Epoch_resume ->
      if not ps.in_epoch then
        v "epoch-unbalanced" "Epoch_resume outside an epoch"
  | Trace.Quota_charge ->
      let addr = e.Trace.arg and size = e.Trace.arg2 in
      (match Hashtbl.find_opt ps.q_allocs addr with
      | Some q ->
          v "quota-conservation"
            (Printf.sprintf
               "0x%x charged while already held (%d bytes, %s)" addr q.q_size
               (if q.q_quarantined then "quarantined" else "live"));
          ps.q_credited <- ps.q_credited + q.q_size;
          if q.q_quarantined then
            ps.q_quarantined <- ps.q_quarantined - q.q_size
          else ps.q_live <- ps.q_live - q.q_size
      | None -> ());
      Hashtbl.replace ps.q_allocs addr { q_size = size; q_quarantined = false };
      ps.q_charged <- ps.q_charged + size;
      ps.q_live <- ps.q_live + size;
      check_quota t ps ~time ~core
  | Trace.Quota_credit ->
      let addr = e.Trace.arg and size = e.Trace.arg2 in
      (match Hashtbl.find_opt ps.q_allocs addr with
      | None ->
          v "quota-conservation"
            (Printf.sprintf "0x%x credited %d bytes but was never charged"
               addr size)
      | Some q ->
          if q.q_size <> size then
            v "quota-conservation"
              (Printf.sprintf "0x%x credited %d bytes but was charged %d" addr
                 size q.q_size);
          ps.q_credited <- ps.q_credited + q.q_size;
          if q.q_quarantined then
            ps.q_quarantined <- ps.q_quarantined - q.q_size
          else ps.q_live <- ps.q_live - q.q_size;
          Hashtbl.remove ps.q_allocs addr);
      check_quota t ps ~time ~core
  | Trace.Free_all ->
      (* arg2 is the total charge handed to quarantine in one shot; it
         can never exceed what the tenant still holds live. *)
      if e.Trace.arg2 > ps.q_live then
        v "quota-conservation"
          (Printf.sprintf
             "free_all hands %d bytes to quarantine but only %d are live"
             e.Trace.arg2 ps.q_live);
      check_quota t ps ~time ~core
  | Trace.Proc_kill | Trace.Stw_abandon | Trace.Strategy_downshift
  | Trace.Quarantine_abandoned | Trace.Tag_corruption | Trace.Shootdown_retry
  | Trace.Chaos_inject | Trace.Stw_request | Trace.Clg_fault
  | Trace.Context_switch | Trace.Revoke_batch | Trace.Cow_fault
  | Trace.Proc_exec | Trace.Proc_exit | Trace.Sched_grant | Trace.Req_shed
  | Trace.Req_lost | Trace.Governor_defer
  | Trace.Governor_force | Trace.Governor_quantum | Trace.Slo_violation
  | Trace.Quota_deny | Trace.Custom _ ->
      ()

let attach ?revoker m =
  let tracer =
    match Machine.tracer m with
    | Some tr -> tr
    | None ->
        let tr = Trace.create () in
        Machine.attach_tracer m (Some tr);
        tr
  in
  let t =
    {
      m;
      tracer;
      sub = None;
      pstates = Hashtbl.create 8;
      stored = [];
      total = 0;
      counts = Hashtbl.create 16;
    }
  in
  register_process t ~pid:0 ?revoker ();
  t.sub <- Some (Trace.subscribe tracer (on_event t));
  t

let detach t =
  match t.sub with
  | None -> ()
  | Some id ->
      Trace.unsubscribe t.tracer id;
      t.sub <- None

(* Point an existing sanitizer at a fresh machine, dropping all recorded
   state but reusing the allocation (the hash tables shrink in place).
   The model checker re-runs thousands of schedules against one
   sanitizer this way instead of allocating one per schedule. *)
let rebind t ?revoker m =
  detach t;
  let tracer =
    match Machine.tracer m with
    | Some tr -> tr
    | None ->
        let tr = Trace.create () in
        Machine.attach_tracer m (Some tr);
        tr
  in
  t.m <- m;
  t.tracer <- tracer;
  Hashtbl.reset t.pstates;
  Hashtbl.reset t.counts;
  t.stored <- [];
  t.total <- 0;
  register_process t ~pid:0 ?revoker ();
  t.sub <- Some (Trace.subscribe tracer (on_event t))

let finish t =
  let time = Machine.global_time t.m in
  let pids =
    List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) t.pstates [])
  in
  List.iter
    (fun pid ->
      let ps = pstate t pid in
      if ps.in_epoch then
        violation t ~time ~core:(-1) ~pid "epoch-unbalanced"
          "run finished inside an open epoch";
      check_accounting t ps ~time ~core:(-1);
      check_quota t ps ~time ~core:(-1))
    pids

let violations t = List.rev t.stored
let total_violations t = t.total
let count t rule = Option.value ~default:0 (Hashtbl.find_opt t.counts rule)
let ok t = t.total = 0

let max_reported = 10

let report fmt t =
  if ok t then Format.fprintf fmt "sanitizer: no violations@."
  else begin
    Format.fprintf fmt "sanitizer: %d violation(s)@." t.total;
    let rules =
      List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.counts [])
    in
    List.iter (fun (r, n) -> Format.fprintf fmt "  %-28s %6d@." r n) rules;
    let shown = ref 0 in
    List.iter
      (fun v ->
        if !shown < max_reported then begin
          incr shown;
          Format.fprintf fmt "  [%d @ core %d, pid %d] %s: %s@." v.v_time
            v.v_core v.v_pid v.v_rule v.v_detail
        end)
      (violations t);
    (* Never truncate silently: disclose everything beyond both the
       display limit and the storage cap ([t.total] counts violations the
       capped store dropped). *)
    if t.total > !shown then
      Format.fprintf fmt "  …and %d more violation(s) (%d stored)@."
        (t.total - !shown)
        (List.length t.stored)
  end

let all_rules =
  [
    ("epoch-unbalanced", "Epoch_begin/end/abort/resume nesting is broken");
    ("epoch-parity", "epoch counter odd at a begin/end/abort boundary");
    ("epoch-monotonic", "epoch counter skipped or moved backwards");
    ("missing-shootdown", "Cornucopia epoch swept pages with no TLB shootdown");
    ("missing-hoard-scan", "epoch ended with kernel hoards never scanned");
    ("double-paint", "region painted while already in quarantine");
    ("unpaint-not-dequarantined", "bitmap cleared for a region not dequarantined");
    ("enqueue-unpainted", "region enqueued without being painted first");
    ("dequeue-not-enqueued", "region dequeued that was never enqueued");
    ("early-dequarantine", "region left quarantine before its clean target");
    ("early-reuse", "freed memory reused before its clean target");
    ("clg-toggle-outside-stw", "load generation flipped without the world stopped");
    ("clg-double-toggle", "load generation flipped more than once per epoch");
    ("clg-core-disagreement", "a core's generation differs from the page map's");
    ("stale-cap-memory", "tagged cap into quarantined memory survived the epoch");
    ("stale-cap-regfile", "register holds a cap into quarantine after the epoch");
    ("stale-cap-hoard", "kernel hoard holds a cap into quarantine after the epoch");
    ("quarantine-accounting", "painted/unpainted/bitmap byte accounts disagree");
    ("quota-conservation",
     "per-tenant charged − credited drifted from live + quarantined");
  ]
