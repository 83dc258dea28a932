module Capability = Cheri.Capability
module Machine = Sim.Machine
module Cost = Sim.Cost
module Aspace = Vm.Aspace
module Backend = Alloc.Backend
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs
module Policy = Ccr.Policy
module Revmap = Ccr.Revmap

(* ------------------------------------------------------------------ *)
(* Cross-process revocation scheduler                                  *)
(* ------------------------------------------------------------------ *)

module Revsched = struct
  type policy = Round_robin | Pressure | Slo | Quota

  let policy_name = function
    | Round_robin -> "round-robin"
    | Pressure -> "pressure"
    | Slo -> "slo"
    | Quota -> "quota"

  let policy_of_name = function
    | "round-robin" | "rr" -> Some Round_robin
    | "pressure" -> Some Pressure
    | "slo" -> Some Slo
    | "quota" -> Some Quota
    | _ -> None

  type entry = {
    e_pid : int;
    pressure : unit -> int;
    mutable load : unit -> float;
    mutable debt : unit -> int;
    mutable grants : int;
    mutable wait_cycles : int;
  }

  type t = {
    m : Machine.t;
    policy : policy;
    entries : (int, entry) Hashtbl.t;
    mutable holder : int option;
    mutable waiting : int list; (* pids blocked in acquire *)
    cv : Machine.condvar;
  }

  let create m ~policy =
    {
      m;
      policy;
      entries = Hashtbl.create 8;
      holder = None;
      waiting = [];
      cv = Machine.condvar ();
    }

  let entry t pid =
    match Hashtbl.find_opt t.entries pid with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "Revsched: unknown pid %d" pid)

  (* Among the currently waiting processes, which should run next?
     Round-robin grants the least-served waiter; pressure grants the one
     with the most quarantined bytes; slo grants the one whose serving
     load is lowest right now (its epoch disturbs the least traffic),
     falling back to pressure among equally-loaded waiters; quota grants
     the one whose quarantine debt — quota charged for memory stuck in
     quarantine, i.e. the economic cost of revocation lag — is largest,
     falling back to pressure. Ties break towards the lowest pid,
     keeping the choice deterministic. *)
  let chosen t =
    let better (a : entry) (b : entry) =
      match t.policy with
      | Round_robin -> a.grants < b.grants || (a.grants = b.grants && a.e_pid < b.e_pid)
      | Pressure ->
          let pa = a.pressure () and pb = b.pressure () in
          pa > pb || (pa = pb && a.e_pid < b.e_pid)
      | Slo ->
          let la = a.load () and lb = b.load () in
          if la <> lb then la < lb
          else
            let pa = a.pressure () and pb = b.pressure () in
            pa > pb || (pa = pb && a.e_pid < b.e_pid)
      | Quota ->
          let da = a.debt () and db = b.debt () in
          if da <> db then da > db
          else
            let pa = a.pressure () and pb = b.pressure () in
            pa > pb || (pa = pb && a.e_pid < b.e_pid)
    in
    List.fold_left
      (fun best pid ->
        let e = entry t pid in
        match best with
        | None -> Some e
        | Some b -> if better e b then Some e else best)
      None t.waiting

  let acquire t ctx pid =
    let e = entry t pid in
    let t0 = Machine.now ctx in
    t.waiting <- pid :: t.waiting;
    let turn () =
      t.holder = None
      && match chosen t with Some c -> c.e_pid = pid | None -> false
    in
    while not (turn ()) do
      Machine.wait ctx t.cv
    done;
    t.holder <- Some pid;
    t.waiting <- List.filter (fun p -> p <> pid) t.waiting;
    e.grants <- e.grants + 1;
    e.wait_cycles <- e.wait_cycles + (Machine.now ctx - t0);
    Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
      ~pid ~arg2:(List.length t.waiting) Sim.Trace.Sched_grant pid

  let release t ctx pid =
    (match t.holder with
    | Some h when h = pid -> t.holder <- None
    | _ -> ());
    Machine.broadcast ctx t.cv

  let register t ~pid ~pressure ?(load = fun () -> 0.0) ?debt ~revoker () =
    (* With no ledger attached, quarantine debt falls back to raw
       quarantine pressure — the quota policy then degrades to pressure. *)
    let debt = match debt with Some d -> d | None -> pressure in
    Hashtbl.replace t.entries pid
      { e_pid = pid; pressure; load; debt; grants = 0; wait_cycles = 0 };
    Revoker.set_epoch_gate revoker
      ~acquire:(fun ctx -> acquire t ctx pid)
      ~release:(fun ctx -> release t ctx pid)

  (* The serving layer is built after the process table, so its load
     probe (queue depth, utilisation estimate) is installed late. *)
  let set_load t ~pid f = (entry t pid).load <- f

  (* Likewise the quota ledger: tenants register their accounts after
     fork, then point their scheduler entry at the ledger's debt. *)
  let set_debt t ~pid f = (entry t pid).debt <- f

  type stats = { pid : int; grants : int; wait_cycles : int }

  let stats t =
    Hashtbl.fold
      (fun _ e acc ->
        { pid = e.e_pid; grants = e.grants; wait_cycles = e.wait_cycles } :: acc)
      t.entries []
    |> List.sort (fun a b -> compare a.pid b.pid)
end

(* ------------------------------------------------------------------ *)
(* Process table                                                       *)
(* ------------------------------------------------------------------ *)

type state = Running | Zombie | Reaped

type fault = Adopt_quarantine

type proc = {
  pid : int;
  mutable p_name : string;
  mutable aspace : Aspace.t;
  mutable rt : Runtime.t;
  mutable p_state : state;
  mutable forked_at : int;
  mutable exited_at : int;
}

type t = {
  m : Machine.t;
  mode : Runtime.mode;
  policy : Policy.t;
  recovery : Revoker.recovery option;
  sched : Revsched.t;
  revoker_core : int;
  mutable procs : proc list; (* newest first *)
  mutable next_pid : int;
  mutable next_asid : int;
  mutable live_children : int;
  chld_cv : Machine.condvar; (* a child became a zombie, or shutdown *)
  reap_cv : Machine.condvar; (* a zombie was reaped *)
  mutable shutting_down : bool;
  mutable fault : fault option;
  mutable on_process : proc -> unit;
}

let machine t = t.m
let sched t = t.sched
let pid (p : proc) = p.pid
let runtime p = p.rt
let proc_aspace p = p.aspace
let proc_state p = p.p_state
let find_proc t pid = List.find_opt (fun p -> p.pid = pid) t.procs
let procs t = List.sort (fun a b -> Int.compare a.pid b.pid) t.procs

(* A plain recursion, so that sampling on every served request
   allocates nothing. *)
let rec quarantine_sum acc = function
  | [] -> acc
  | p :: rest ->
      let q = match p.rt.Runtime.mrs with Some mrs -> Mrs.quarantine_bytes mrs | None -> 0 in
      quarantine_sum (acc + q) rest

let quarantine_bytes t = quarantine_sum 0 t.procs
let init t = Option.get (find_proc t 0)
let inject_fault t f = t.fault <- f
let set_on_process t f = t.on_process <- f

let register_with_sched t (p : proc) =
  match p.rt.Runtime.mrs, p.rt.Runtime.revoker with
  | Some mrs, Some r ->
      Revsched.register t.sched ~pid:p.pid
        ~pressure:(fun () -> Mrs.quarantine_bytes mrs)
        ~revoker:r ()
  | _ -> ()

let create ?config ?(policy = Policy.default) ?(sched = Revsched.Round_robin)
    ?(revoker_core = 2) ?recovery ?allocator mode =
  let rt = Runtime.create ?config ~policy ~revoker_core ?recovery ?allocator mode in
  let m = rt.Runtime.machine in
  let p0 =
    {
      pid = 0;
      p_name = "init";
      aspace = Machine.aspace m;
      rt;
      p_state = Running;
      forked_at = 0;
      exited_at = 0;
    }
  in
  let t =
    {
      m;
      mode;
      policy;
      recovery;
      sched = Revsched.create m ~policy:sched;
      revoker_core;
      procs = [ p0 ];
      next_pid = 1;
      next_asid = 1;
      live_children = 0;
      chld_cv = Machine.condvar ();
      reap_cv = Machine.condvar ();
      shutting_down = false;
      fault = None;
      on_process = (fun _ -> ());
    }
  in
  register_with_sched t p0;
  t

(* Every quarantined region of [parent] at this instant: shim fill
   buffer, batches queued at the revoker, and the in-flight epoch's
   entries. The caller filters against the child's inherited bitmap. *)
let parent_quarantine (rt : Runtime.t) =
  match rt.Runtime.mrs, rt.Runtime.revoker with
  | Some mrs, Some r ->
      Mrs.buffered_entries mrs @ Revoker.queued_entries r
      @ Revoker.currently_revoking r
  | _ -> []

(* The child adopted its inherited quarantine as reusable memory without
   waiting for any revocation epoch: §2.2.3 broken across fork. The
   regions are unpainted and released while stale capabilities to them
   (copied into the child's registers and heap at fork) still exist. *)
let adopt_quarantine_fault ctx (child_rt : Runtime.t) entries =
  match child_rt.Runtime.mrs, child_rt.Runtime.revoker with
  | Some _, Some r ->
      let m = Machine.machine ctx in
      List.iter
        (fun (addr, size) ->
          Machine.trace_emit m ~time:(Machine.now ctx)
            ~core:(Machine.core_id ctx) ~pid:(Revoker.pid r) ~arg2:size
            Sim.Trace.Quarantine_deq addr;
          Revmap.clear (Revoker.revmap r) ctx ~addr ~size;
          child_rt.Runtime.alloc.Backend.release_range ctx ~addr ~size;
          Machine.trace_emit m ~time:(Machine.now ctx)
            ~core:(Machine.core_id ctx) ~pid:(Revoker.pid r) ~arg2:size
            Sim.Trace.Reuse addr)
        entries
  | _ -> ()

let fork t ctx ~parent ~name ~core body =
  if parent.p_state <> Running then invalid_arg "Os.fork: parent not running";
  let child_pid = t.next_pid in
  t.next_pid <- child_pid + 1;
  let asid = t.next_asid in
  t.next_asid <- asid + 1;
  (* Host-atomic snapshot: address space, allocator metadata and the
     quarantine set are all captured at the same instant; the charges
     below land after the snapshot is consistent. *)
  let child_asp, downgraded = Aspace.fork parent.aspace ~asid in
  let alloc =
    match parent.rt.Runtime.alloc.Backend.clone with
    | Some f -> f ~aspace:child_asp
    | None ->
        invalid_arg
          (Printf.sprintf "Os.fork: %s does not support fork"
             parent.rt.Runtime.alloc.Backend.name)
  in
  let inherited = parent_quarantine parent.rt in
  (* The parent keeps writing through now-read-only PTEs unless every
     core that may cache them is invalidated. *)
  Machine.tlb_shootdown ~asid:(Aspace.asid parent.aspace) ctx ~vpages:downgraded;
  Machine.charge ctx (Cost.fork_base + (List.length downgraded * Cost.pte_update));
  let hoards = Kernel.Hoard.create () in
  let rt =
    match t.mode with
    | Runtime.Baseline ->
        {
          Runtime.machine = t.m;
          alloc;
          hoards;
          mode = t.mode;
          mrs = None;
          revoker = None;
        }
    | Runtime.Safe strategy ->
        let revoker =
          Revoker.create t.m ~strategy ~core:t.revoker_core ?recovery:t.recovery
            ~hoards ~aspace:child_asp ~pid:child_pid ()
        in
        (match parent.rt.Runtime.revoker with
        | Some pr -> Revoker.inherit_from revoker ~parent:pr
        | None -> ());
        let mrs = Mrs.create t.m ~alloc ~revoker ~policy:t.policy () in
        {
          Runtime.machine = t.m;
          alloc;
          hoards;
          mode = t.mode;
          mrs = Some mrs;
          revoker = Some revoker;
        }
  in
  let child =
    {
      pid = child_pid;
      p_name = name;
      aspace = child_asp;
      rt;
      p_state = Running;
      forked_at = Machine.now ctx;
      exited_at = 0;
    }
  in
  t.procs <- child :: t.procs;
  t.live_children <- t.live_children + 1;
  register_with_sched t child;
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:parent.pid ~arg2:(List.length downgraded) Sim.Trace.Proc_fork child_pid;
  t.on_process child;
  (* Quarantine crosses fork (§4.3): regions painted in the parent are
     painted in the child's copied bitmap too. The child re-quarantines
     whichever of them still carry bits (an entry mid-dequarantine at
     the snapshot has had its bits cleared, and its reuse is visible in
     the cloned free lists instead). *)
  (match rt.Runtime.mrs, rt.Runtime.revoker with
  | Some mrs, Some r ->
      let still_painted =
        List.filter (fun (addr, _) -> Revmap.test_host (Revoker.revmap r) addr)
          inherited
      in
      (match t.fault with
      | Some Adopt_quarantine -> adopt_quarantine_fault ctx rt still_painted
      | None -> Mrs.adopt_quarantine mrs still_painted)
  | _ -> ());
  ignore
    (Machine.spawn t.m ~name ~core ~pid:child_pid ~aspace:child_asp
       (fun cctx -> body cctx child));
  child

let exec t ctx proc ~name =
  if proc.p_state <> Running then invalid_arg "Os.exec: process not running";
  if Machine.ctx_pid ctx <> proc.pid then
    invalid_arg "Os.exec: a process may only exec itself";
  (* No quarantined byte may survive into the new image: flush and drain
     before the old space is torn down. *)
  (match proc.rt.Runtime.mrs with
  | Some mrs ->
      Mrs.flush mrs ctx;
      Mrs.wait_drained mrs ctx
  | None -> ());
  let handles = ref [] in
  Kernel.Hoard.iter proc.rt.Runtime.hoards ~f:(fun h _ -> handles := h :: !handles);
  List.iter (fun h -> Kernel.Hoard.deregister proc.rt.Runtime.hoards ctx h) !handles;
  let asid = t.next_asid in
  t.next_asid <- asid + 1;
  let fresh =
    Aspace.create (Aspace.phys proc.aspace) (Aspace.layout proc.aspace) ~asid
  in
  let released = Aspace.release_all proc.aspace in
  Machine.charge ctx (Cost.fork_base + (released * Cost.pte_update));
  Machine.adopt_aspace ctx fresh;
  let alloc =
    match proc.rt.Runtime.alloc.Backend.name with
    | "jemalloc" -> Backend.jemalloc (Alloc.Jemalloc.create ~aspace:fresh t.m)
    | _ -> Backend.snmalloc (Alloc.Allocator.create ~aspace:fresh t.m)
  in
  let rt =
    match proc.rt.Runtime.revoker with
    | Some r ->
        Revoker.rebind r ~aspace:fresh;
        let mrs = Mrs.create t.m ~alloc ~revoker:r ~policy:t.policy () in
        { proc.rt with Runtime.alloc; mrs = Some mrs }
    | None -> { proc.rt with Runtime.alloc }
  in
  proc.aspace <- fresh;
  proc.rt <- rt;
  proc.p_name <- name;
  register_with_sched t proc;
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:proc.pid Sim.Trace.Proc_exec released;
  t.on_process proc

(* The terminating process's last act: hand any remaining quarantine to
   its revoker and become a zombie for the reaper. The quarantine is NOT
   abandoned (unlike single-process [Runtime.finish]): its pages go back
   to the shared physical allocator only after a full revocation pass. *)
let exit t ctx proc =
  if proc.p_state <> Running then invalid_arg "Os.exit: process not running";
  let leftover =
    match proc.rt.Runtime.mrs with
    | Some mrs ->
        let q = Mrs.quarantine_bytes mrs in
        Mrs.flush mrs ctx;
        q
    | None -> 0
  in
  proc.p_state <- Zombie;
  proc.exited_at <- Machine.now ctx;
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:proc.pid Sim.Trace.Proc_exit leftover;
  Machine.broadcast ctx t.chld_cv

(* Forcible termination at an arbitrary epoch phase. Every user thread of
   the victim is marked killed; each unwinds ([Thread_killed] through its
   [Fun.protect] finalizers) at its next scheduling point — including
   threads parked in a stop-the-world, blocked on condvars, or asleep in
   a syscall, which is what lets a kill unstick a wedged quiesce. The
   victim's revoker and helper threads are kernel-side and keep running:
   like [exit], leftover quarantine is flushed to them and drained by the
   reaper before the frames return to the shared pool, so a kill never
   shortcuts the epoch protocol. *)
let kill t ctx proc =
  if proc.p_state <> Running then invalid_arg "Os.kill: process not running";
  if Machine.ctx_pid ctx = proc.pid then
    invalid_arg "Os.kill: a process cannot kill itself (use exit)";
  let killed = Machine.kill_pid t.m proc.pid in
  let leftover =
    match proc.rt.Runtime.mrs with
    | Some mrs -> Mrs.quarantine_bytes mrs
    | None -> 0
  in
  (* Emitted before the flush: the kill is a synchronization edge (the
     victim's threads are torn down before the killer proceeds), and the
     race detector needs to see it before the killer re-enqueues the
     victim's quarantine from its own core. *)
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:proc.pid ~arg2:leftover Sim.Trace.Proc_kill killed;
  (match proc.rt.Runtime.mrs with
  | Some mrs -> Mrs.flush mrs ctx
  | None -> ());
  proc.p_state <- Zombie;
  proc.exited_at <- Machine.now ctx;
  Machine.broadcast ctx t.chld_cv;
  killed

let zombies t = List.filter (fun p -> p.p_state = Zombie) (procs t)

(* Reap one zombie: wait out its quarantine (epochs keep running on its
   still-live revoker thread), shut its revoker down, then return every
   frame of its address space to the shared pool. *)
let reap t ctx (p : proc) =
  (match p.rt.Runtime.mrs with
  | Some mrs ->
      Mrs.wait_drained mrs ctx;
      Mrs.finish mrs ctx
  | None -> ());
  let released = Aspace.release_all p.aspace in
  Machine.charge ctx (released * Cost.pte_update);
  p.p_state <- Reaped;
  t.live_children <- t.live_children - 1;
  Machine.broadcast ctx t.reap_cv

let reaper_body t ctx =
  let rec loop () =
    match zombies t with
    | z :: _ ->
        reap t ctx z;
        loop ()
    | [] ->
        if not (t.shutting_down && t.live_children = 0) then begin
          Machine.wait ctx t.chld_cv;
          loop ()
        end
  in
  loop ()

let spawn_reaper t =
  ignore (Machine.spawn t.m ~name:"reaper" ~core:0 ~user:false (reaper_body t))

let wait_children t ctx =
  while t.live_children > 0 do
    Machine.wait ctx t.reap_cv
  done

(* Init's tail end: drain its own runtime and release the reaper. *)
let shutdown t ctx =
  t.shutting_down <- true;
  Runtime.finish (init t).rt ctx;
  Machine.broadcast ctx t.chld_cv

type proc_stats = {
  s_pid : int;
  s_name : string;
  s_state : state;
  elapsed_cycles : int; (* fork to exit, or to now for live processes *)
  quarantine_bytes : int;
  allocations : int;
}

let proc_stats t p =
  {
    s_pid = p.pid;
    s_name = p.p_name;
    s_state = p.p_state;
    elapsed_cycles =
      (if p.p_state = Running then Machine.global_time t.m else p.exited_at)
      - p.forked_at;
    quarantine_bytes =
      (match p.rt.Runtime.mrs with Some mrs -> Mrs.quarantine_bytes mrs | None -> 0);
    allocations = p.rt.Runtime.alloc.Backend.allocation_count ();
  }
