module Capability = Cheri.Capability
module Perms = Cheri.Perms
module Mem = Tagmem.Mem
module Cache = Tagmem.Cache
module Pte = Vm.Pte
module Pmap = Vm.Pmap
module Tlb = Vm.Tlb
module Phys = Vm.Phys
module Aspace = Vm.Aspace
module Layout = Vm.Layout

type config = {
  cores : int;
  mem_bytes : int;
  heap_bytes : int;
  quantum : int;
  seed : int;
}

let default_config =
  {
    cores = 4;
    mem_bytes = 64 * 1024 * 1024;
    heap_bytes = 16 * 1024 * 1024;
    quantum = 4096;
    seed = 42;
  }

type state =
  | Created
  | Runnable
  | Running
  | Sleeping
  | Waiting of condvar
  | Waiting_stw
  | Parked of state
  | Finished

and condvar = { mutable waiters : thread list }

and thread = {
  tid : int;
  name : string;
  tcore : int;
  user : bool;
  pid : int;
  mutable asp : Aspace.t;
  regs : Regfile.t;
  body : ctx -> unit;
  mutable state : state;
  mutable wake_time : int;
  mutable in_syscall : bool;
  mutable syscall_drain : int;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable cpu : int;
  mutable last_ran : int;
  mutable slice_start : int;
  mutable killed : bool;
  mutable sp_checked : bool;
      (* a stop-the-world checkpoint already ran in the current slice
         and did not park; reset at every resume. Lets [poll] skip
         re-reading [m.stw] for the rest of the slice. *)
}

and core = {
  cid : int;
  mutable clock : int;
  mutable clg : bool;
  mutable casid : int; (* asid of the currently-installed address space *)
  cache : Cache.t;
  tlb : Tlb.t;
  mutable resident : int;
  mutable busy : int;
}

and stw = {
  initiator : thread;
  t0 : int;
  deadline : int option; (* watchdog: give up waiting past this time *)
  mutable pending : thread list;
  mutable parked : thread list;
  mutable stopped_at : int;
}

and t = {
  cfg : config;
  mem : Mem.t;
  phys : Phys.t;
  aspace : Aspace.t;
  cores : core array;
  mutable threads : thread list; (* in spawn order *)
  mutable next_tid : int;
  mutable seq : int;
  mutable stw : stw option;
  (* CLG fault handlers and load filters are per address space: each
     process's revoker registers under its own asid. *)
  clg_handlers : (int, ctx -> vaddr:int -> Pte.t -> unit) Hashtbl.t;
  load_filters : (int, ctx -> Capability.t -> Capability.t) Hashtbl.t;
  mutable store_hook : (vaddr:int -> Capability.t -> unit) option;
  (* Fault-injection hooks (lib/chaos): generic callbacks so this layer
     knows nothing about fault schedules. All default to absent. *)
  mutable drain_hook : (ctx -> int -> int) option;
      (* rewrite the uninterruptible drain charged when a quiesce
         catches this thread mid-syscall *)
  mutable ack_hook : (core:int -> bool) option;
      (* [true] = this core's shootdown ack was lost; the IPI loop
         retries (bounded) until the ack lands *)
  mutable tag_hook : (pa:int -> bool) option;
      (* [true] = this tag read returns corrupted data once; the
         machine detects it (tag parity), charges a re-read, retries *)
  mutable sched_oracle : (default:thread -> thread list -> thread) option;
      (* model-checking hook: when installed, every scheduler pick
         presents ALL eligible threads (spawn order) plus the thread the
         built-in policy would choose, and runs whatever the oracle
         returns instead *)
  prng : Prng.t;
  mutable ctx_switches : int;
  mutable stw_count : int;
  mutable clg_faults : int;
  mutable trace : Trace.t option;
}

and ctx = { m : t; th : thread }

exception Deadlock of string

exception
  Capability_fault of { cap : Capability.t; op : string; vaddr : int }

exception Page_fault of { vaddr : int; write : bool }

exception Quiesce_timeout of { stalled : int; waited : int }
(* A watchdogged stop-the-world gave up: [stalled] threads never parked
   (or parked past the deadline) after [waited] cycles. The world has
   already been released when this is raised. *)

exception Thread_killed
(* Raised inside a fiber whose thread was torn down by [kill_pid]; the
   scheduler discontinues the stored continuation with it so that
   [Fun.protect] finalizers (lock releases, gate releases) run. *)

type _ Effect.t += Yield : unit Effect.t

(* Literals, checked against the layers that own them, so that divisions
   and masks by them compile to shifts and ands. *)
let page_size = 4096
let granule = 16
let () = assert (page_size = Phys.page_size && granule = Mem.granule)

let create cfg =
  let mem = Mem.create ~size:cfg.mem_bytes in
  let phys = Phys.create mem in
  let layout = Layout.make ~heap_bytes:cfg.heap_bytes in
  let aspace = Aspace.create phys layout ~asid:0 in
  let cores =
    Array.init cfg.cores (fun cid ->
        {
          cid;
          clock = 0;
          clg = false;
          casid = 0;
          cache = Cache.create ();
          tlb = Tlb.create ();
          resident = -1;
          busy = 0;
        })
  in
  {
    cfg;
    mem;
    phys;
    aspace;
    cores;
    threads = [];
    next_tid = 0;
    seq = 0;
    stw = None;
    clg_handlers = Hashtbl.create 8;
    load_filters = Hashtbl.create 8;
    store_hook = None;
    drain_hook = None;
    ack_hook = None;
    tag_hook = None;
    sched_oracle = None;
    prng = Prng.create ~seed:cfg.seed;
    ctx_switches = 0;
    stw_count = 0;
    clg_faults = 0;
    trace = None;
  }

let mem m = m.mem
let aspace m = m.aspace
let layout m = Aspace.layout m.aspace
let prng m = m.prng
let num_cores m = Array.length m.cores
let core_clock m i = m.cores.(i).clock

let global_time m =
  Array.fold_left (fun acc c -> Int.max acc c.clock) 0 m.cores

let cache_stats m i = Cache.stats m.cores.(i).cache
let attach_tracer m t =
  (match t with Some tr -> Trace.set_warn_on_drop tr true | None -> ());
  m.trace <- t

let tracer m = m.trace

let trace_emit m ~time ~core ?(pid = 0) ?(arg2 = 0) kind arg =
  match m.trace with
  | None -> ()
  | Some t -> Trace.emit t ~time ~core ~pid ~arg2 kind arg

let spawn m ~name ~core ?(user = true) ?(pid = 0) ?aspace body =
  if core < 0 || core >= Array.length m.cores then invalid_arg "Machine.spawn: core";
  let asp = match aspace with Some a -> a | None -> m.aspace in
  let th =
    {
      tid = m.next_tid;
      name;
      tcore = core;
      user;
      pid;
      asp;
      regs = Regfile.create ();
      body;
      state = Created;
      wake_time = 0;
      in_syscall = false;
      syscall_drain = 0;
      cont = None;
      cpu = 0;
      last_ran = 0;
      slice_start = 0;
      killed = false;
      sp_checked = false;
    }
  in
  m.next_tid <- m.next_tid + 1;
  m.threads <- m.threads @ [ th ];
  th

let thread_name th = th.name
let thread_id th = th.tid
let thread_cpu_cycles th = th.cpu
let thread_pid th = th.pid
let regs th = th.regs
let self ctx = ctx.th
let machine ctx = ctx.m
let core_id ctx = ctx.th.tcore
let[@inline] core_of ctx = ctx.m.cores.(ctx.th.tcore)
let now ctx = (core_of ctx).clock
let ctx_pid ctx = ctx.th.pid
let user_threads m = List.filter (fun th -> th.user) m.threads
let core_asid m i = m.cores.(i).casid

(* Host-side: rebind a thread to another address space; the switch takes
   architectural effect (TLB flush, generation resync) at its next
   resume. Used by [exec] to move a process's service threads over. *)
let assign_aspace th a = th.asp <- a

let aspace_of_pid m pid =
  let rec find = function
    | [] -> None
    | th :: rest ->
        if th.pid = pid && th.state <> Finished then Some th.asp
        else find rest
  in
  find m.threads

(* Charge [n] cycles to [c], the caller's core. *)
let[@inline] charge_on ctx c n =
  c.clock <- c.clock + n;
  c.busy <- c.busy + n;
  ctx.th.cpu <- ctx.th.cpu + n

let charge ctx n =
  assert (n >= 0);
  charge_on ctx (core_of ctx) n

(* Earliest simulated instant at which [th] could next be scheduled, or
   [-1] if it cannot run until some event changes its state — an int, not
   an option, since every pick asks it of every thread. Defined here
   (rather than with the scheduler below) because the yield fast path in
   {!safe_point} consults it. *)
let eligible_time m th =
  let c = m.cores.(th.tcore) in
  match th.state with
  | Created | Runnable | Sleeping -> Int.max c.clock th.wake_time
  | Waiting_stw -> (
      (* A watchdogged STW initiator is schedulable at its deadline even
         if the quiesce never completes; without a deadline it can only
         be woken by [wake_initiator]. *)
      match m.stw with
      | Some { initiator; deadline = Some _; _ } when initiator.tid = th.tid ->
          Int.max c.clock th.wake_time
      | _ -> -1)
  | Running | Waiting _ | Parked _ | Finished -> -1

(* Sole-eligible yield fast path: when yielding at [tmine] while every
   other thread is either unschedulable or strictly later, [pick] is
   guaranteed to choose this very thread again with nothing running in
   between (ties lose to the incumbent's larger [last_ran], hence the
   strict [>]). The caller then replicates [resume]'s bookkeeping inline
   — clock advance, slice reset, [sp_checked], [seq]/[last_ran] — and
   skips the fiber round trip entirely, which costs an effect capture
   plus a continuation switch per quantum. Disabled under an STW (parking
   must go through the real scheduler) and under a scheduling oracle
   (the oracle must be offered every candidate set). *)
let rec others_later m th tmine = function
  | [] -> true
  | other :: rest ->
      (other.tid = th.tid
      ||
      let t = eligible_time m other in
      t < 0 || t > tmine)
      && others_later m th tmine rest

let sole_eligible m th tmine =
  (match m.stw with None -> true | Some _ -> false)
  && (match m.sched_oracle with None -> true | Some _ -> false)
  && others_later m th tmine m.threads

(* [resume]'s self-resume bookkeeping, exactly: same-core, same-resident,
   same-aspace, so no context-switch or TLB work applies. *)
let self_resume ctx tmine =
  let th = ctx.th in
  let c = core_of ctx in
  c.clock <- Int.max c.clock tmine;
  th.slice_start <- c.clock;
  th.sp_checked <- false;
  ctx.m.seq <- ctx.m.seq + 1;
  th.last_ran <- ctx.m.seq

(* ---- stop-the-world bookkeeping ---- *)

let remove_thread l th = List.filter (fun x -> x.tid <> th.tid) l

let wake_initiator s =
  let ini = s.initiator in
  (match ini.state with
  | Waiting_stw ->
      ini.state <- Runnable;
      (* With a watchdog armed, never sleep past the deadline even if
         the quiesce nominally completed later (a long syscall drain):
         the initiator wakes at the deadline and abandons the pause.
         [wake_time] was pre-set to the deadline when the wait began,
         so it must be overwritten, not maxed. *)
      (match s.deadline with
      | None -> ini.wake_time <- Int.max ini.wake_time s.stopped_at
      | Some d -> ini.wake_time <- Int.min d (Int.max s.t0 s.stopped_at))
  | _ -> ());
  ()

(* Park [th] in place at [time] (plus syscall drain if applicable),
   remembering the state to restore at release. *)
let park s th ~time =
  let time = if th.in_syscall then time + th.syscall_drain else time in
  s.pending <- remove_thread s.pending th;
  s.parked <- th :: s.parked;
  s.stopped_at <- Int.max s.stopped_at time;
  (match th.state with
  | Running | Created -> th.state <- Parked Runnable
  | st -> th.state <- Parked st);
  if s.pending = [] then wake_initiator s

let perform_yield () = Effect.perform Yield

(* The single safe-point/stw check every blocking or yielding operation
   goes through. Returns after any STW parking has been resolved. *)
let checkpoint ctx =
  match ctx.m.stw with
  | Some s
    when ctx.th.user
         && ctx.th.tid <> s.initiator.tid
         && List.exists (fun x -> x.tid = ctx.th.tid) s.pending ->
      let time = Int.max (core_of ctx).clock s.t0 in
      park s ctx.th ~time;
      perform_yield ()
  | Some _ | None -> ()

(* Quantum-expiry yield of [poll] and [yield]: self-resumes inline when
   this thread is the sole-eligible one. *)
let quantum_yield ctx =
  let th = ctx.th in
  let tmine = Int.max (core_of ctx).clock th.wake_time in
  if sole_eligible ctx.m th tmine then self_resume ctx tmine
  else begin
    th.state <- Runnable;
    perform_yield ()
  end

(* The safe point of every access, and [safe_point]. The stop-the-world
   checkpoint runs on the first call after each resume only. Sound
   because the scheduler is cooperative and single-domain: while a
   thread runs uninterrupted, no other thread can install a
   stop-the-world or add it to a pending set, so [m.stw] and the
   thread's membership in [s.pending] stay as one checkpoint saw them
   for the rest of the slice. [sp_checked] is set before the checkpoint
   runs: if the checkpoint parks (yields), [resume] clears the flag and
   the loop checks again against whatever world greeted the wakeup, so a
   thread released into a second pending stop-the-world parks again
   before its next access. The quantum check runs on every call. [c] is
   the caller's core, fetched once: threads are pinned, so it is still
   the caller's core after any yield. *)
let[@inline] poll ctx c =
  let th = ctx.th in
  while not th.sp_checked do
    th.sp_checked <- true;
    checkpoint ctx
  done;
  if c.clock - th.slice_start >= ctx.m.cfg.quantum then quantum_yield ctx

let safe_point ctx = poll ctx (core_of ctx)

let yield ctx =
  checkpoint ctx;
  quantum_yield ctx

let sleep ctx n =
  checkpoint ctx;
  if n > 0 then begin
    let th = ctx.th in
    th.wake_time <- (core_of ctx).clock + n;
    (* Sole-eligible: the scheduler would re-pick this thread at its own
       wake time with nothing in between, so jump the core clock there
       directly. Any thread eligible before (or at) the wake time takes
       the real scheduler path. *)
    if sole_eligible ctx.m th th.wake_time then self_resume ctx th.wake_time
    else begin
      th.state <- Sleeping;
      perform_yield ()
    end
  end

let condvar () = { waiters = [] }

(* Register on the condvar before the STW checkpoint: a thread parked at
   the checkpoint must already be a waiter, so a broadcast issued while
   it is parked (or between the release and its resume) flips its parked
   state to runnable instead of being lost. Registering after the
   checkpoint loses exactly those wakeups. *)
let wait ctx cv =
  cv.waiters <- ctx.th :: cv.waiters;
  ctx.th.state <- Waiting cv;
  checkpoint ctx;
  perform_yield ()

let broadcast ctx cv =
  let t = (core_of ctx).clock in
  List.iter
    (fun th ->
      (match th.state with
      | Waiting _ ->
          th.state <- Runnable;
          th.wake_time <- Int.max th.wake_time t
      | Parked (Waiting _) ->
          th.state <- Parked Runnable;
          th.wake_time <- Int.max th.wake_time t
      | _ -> ());
      ())
    cv.waiters;
  cv.waiters <- []

(* Host-side teardown of every user thread belonging to [pid] (an
   external kill, as opposed to the thread running off the end of its
   body). Marked threads die at their next resume: the scheduler
   discontinues their continuation with [Thread_killed] so finalizers
   run. Blocked threads are made schedulable so the death is prompt;
   threads parked under an active STW stay parked (they are quiesced)
   and die after the release. Returns the number of threads killed. *)
let kill_pid m pid =
  let n = ref 0 in
  List.iter
    (fun th ->
      if th.user && th.pid = pid && th.state <> Finished && not th.killed then begin
        incr n;
        th.killed <- true;
        match th.state with
        | Waiting _ ->
            (* stays on the condvar's waiter list; broadcast skips
               non-Waiting threads so the stale entry is harmless *)
            th.state <- Runnable
        | Sleeping ->
            th.state <- Runnable;
            th.wake_time <- m.cores.(th.tcore).clock
        | Parked _ -> th.state <- Parked Runnable
        | Created | Runnable | Running | Waiting_stw | Finished -> ()
      end)
    m.threads;
  !n

let set_drain_hook m h = m.drain_hook <- h
let set_sched_oracle m o = m.sched_oracle <- o
let set_shootdown_ack_hook m h = m.ack_hook <- h
let set_tag_read_hook m h = m.tag_hook <- h

let enter_syscall ctx ~drain =
  charge ctx Cost.syscall_entry;
  let drain = match ctx.m.drain_hook with Some h -> h ctx drain | None -> drain in
  ctx.th.in_syscall <- true;
  ctx.th.syscall_drain <- Int.max 0 drain

let exit_syscall ctx =
  ctx.th.in_syscall <- false;
  ctx.th.syscall_drain <- 0

type stw_report = { requested_at : int; stopped_at : int; released_at : int }

(* Restore every parked thread and drop the stw record. Shared by the
   normal release, the watchdog abandon, and the exceptional unwind. *)
let release_world m s ~released_at =
  List.iter
    (fun x ->
      match x.state with
      | Parked saved ->
          x.state <- saved;
          x.wake_time <- Int.max x.wake_time released_at
      | _ -> ())
    s.parked;
  m.stw <- None

let stop_the_world ctx ?scope ?timeout f =
  let m = ctx.m and th = ctx.th in
  if th.user then invalid_arg "stop_the_world: user threads may not stop the world";
  if m.stw <> None then invalid_arg "stop_the_world: nested";
  charge ctx Cost.stw_base;
  let t0 = (core_of ctx).clock in
  let deadline =
    match timeout with
    | None -> None
    | Some dt -> if dt <= 0 then invalid_arg "stop_the_world: timeout" else Some (t0 + dt)
  in
  let in_scope x =
    match scope with None -> true | Some pids -> List.mem x.pid pids
  in
  let targets =
    List.filter (fun x -> x.user && x.state <> Finished && in_scope x) m.threads
  in
  let s =
    { initiator = th; t0; deadline; pending = targets; parked = []; stopped_at = t0 }
  in
  m.stw <- Some s;
  m.stw_count <- m.stw_count + 1;
  (* Threads that are off-core (blocked, sleeping, not yet started) are
     suspended in place; running/runnable ones park at their next safe
     point. *)
  List.iter
    (fun x ->
      match x.state with
      | Runnable | Running -> ()
      | Created | Sleeping | Waiting _ ->
          park s x ~time:(Int.max m.cores.(x.tcore).clock t0)
      | Waiting_stw | Parked _ | Finished -> ())
    s.pending;
  if s.pending <> [] then begin
    th.state <- Waiting_stw;
    (* With a watchdog armed the initiator is independently schedulable
       at the deadline (see [eligible_time]); otherwise only
       [wake_initiator] can wake it. *)
    (match deadline with Some d -> th.wake_time <- d | None -> ());
    perform_yield ()
  end;
  charge ctx (Cost.quiesce_per_thread * List.length targets);
  trace_emit m ~time:t0 ~core:th.tcore ~pid:th.pid Trace.Stw_request
    (List.length targets);
  let timed_out =
    match deadline with
    | None -> false
    | Some d -> s.pending <> [] || s.stopped_at > d
  in
  if timed_out then begin
    (* Quiesce watchdog: some thread never reached a safe point (or its
       uninterruptible drain runs past the deadline). Give the world
       back exactly as found and report the stall to the caller. *)
    let now = Int.max (core_of ctx).clock t0 in
    let stalled = List.length s.pending in
    trace_emit m ~time:now ~core:th.tcore ~pid:th.pid ~arg2:(now - t0)
      Trace.Stw_abandon stalled;
    release_world m s ~released_at:now;
    raise (Quiesce_timeout { stalled; waited = now - t0 })
  end;
  let stopped_at = Int.max s.stopped_at (core_of ctx).clock in
  trace_emit m ~time:stopped_at ~core:th.tcore ~pid:th.pid Trace.Stw_stopped 0;
  let result =
    try f ()
    with e ->
      (* Never leave the machine wedged: an exception inside the paused
         section (an induced sweep crash, a protocol failure) must still
         release every parked thread before unwinding. *)
      release_world m s ~released_at:(core_of ctx).clock;
      raise e
  in
  let released_at = (core_of ctx).clock in
  trace_emit m ~time:released_at ~core:th.tcore ~pid:th.pid Trace.Stw_release
    (released_at - t0);
  release_world m s ~released_at;
  (result, { requested_at = t0; stopped_at; released_at })

(* ---- CLG ---- *)

(* Toggle the CLG of the caller's address space: the per-core bit flips
   only on cores that have this space installed; cores running other
   processes keep their own generation and resync at their next
   address-space switch. With a single process every core matches, which
   is exactly the old machine-wide behaviour. *)
let toggle_clg ctx =
  let m = ctx.m in
  (match m.stw with
  | Some s when s.initiator.tid = ctx.th.tid -> ()
  | _ -> invalid_arg "toggle_clg: requires the world stopped by the caller");
  let asid = Aspace.asid ctx.th.asp in
  Array.iter
    (fun c ->
      if c.casid = asid then begin
        c.clg <- not c.clg;
        charge ctx Cost.alu
      end)
    m.cores;
  let pmap = Aspace.pmap ctx.th.asp in
  Pmap.set_generation pmap (not (Pmap.generation pmap));
  trace_emit m ~time:(core_of ctx).clock ~core:ctx.th.tcore ~pid:ctx.th.pid
    Trace.Clg_toggle
    (if Pmap.generation pmap then 1 else 0)

let core_clg m i = m.cores.(i).clg

let set_clg_fault_handler m ?(asid = 0) h =
  match h with
  | None -> Hashtbl.remove m.clg_handlers asid
  | Some h -> Hashtbl.replace m.clg_handlers asid h

let set_cap_load_filter m ?(asid = 0) f =
  match f with
  | None -> Hashtbl.remove m.load_filters asid
  | Some f -> Hashtbl.replace m.load_filters asid f

let set_cap_store_hook m h = m.store_hook <- h

(* ---- the access path ----

   Every simulated load and store runs through here: the safe point
   ([poll]), the dereference check ([Capability.authorizes]), the
   translation ([Tlb.lookup], a page walk on a miss), the cache charge
   ([Cache.access]) and the memory operation, each decided by the module
   that owns it. The build inlines the common case of each across
   modules, so a TLB and L1 hit makes no call and allocates nothing
   (DESIGN.md, "The access path"). *)

(* The fault payload: the authorizing capability, moved to [va] for the
   accesses that take an explicit address. *)
let[@inline never] cap_fault cap va ~moved ~op =
  raise
    (Capability_fault
       { cap = (if moved then Capability.set_addr cap va else cap); op; vaddr = va })

(* What [translate] does when [hit], the TLB slot holding [va]'s page or
   -1, cannot serve the access: a page walk and fill, a page fault, or a
   copy-on-write break. Returns the slot the access goes through. *)
let rec translate_miss ctx c va ~write hit =
  let vpage = va / page_size in
  let s =
    if hit >= 0 then hit
    else begin
      charge_on ctx c Cost.tlb_walk;
      match Pmap.lookup (Aspace.pmap ctx.th.asp) ~vpage with
      | None -> raise (Page_fault { vaddr = va; write })
      | Some pte -> Tlb.insert c.tlb ~vpage pte
    end
  in
  let pte = Tlb.pte c.tlb s in
  if write && not pte.Pte.writable then
    if pte.Pte.cow then begin
      (* Copy-on-write break: trap, privatise the frame under the pmap
         lock, and retry. The PTE is mutated in place, so sibling cores
         sharing this space observe the new frame through their own TLB
         entries; no cross-space effect is possible since each space has
         private PTEs. *)
      charge ctx Cost.trap;
      let pmap = Aspace.pmap ctx.th.asp in
      let contended = Pmap.lock pmap ~who:ctx.th.tid in
      charge ctx (if contended then 2 * Cost.pmap_lock else Cost.pmap_lock);
      let stamp = Tlb.stamp c.tlb s in
      let copied =
        Fun.protect
          ~finally:(fun () -> Pmap.unlock pmap ~who:ctx.th.tid)
          (fun () ->
            if pte.Pte.cow then Aspace.cow_break ctx.th.asp ~vpage
            else false (* raced with a sibling thread's break *))
      in
      charge ctx Cost.pte_update;
      if copied then charge ctx Cost.cow_copy;
      Tlb.refresh c.tlb s ~stamp;
      trace_emit ctx.m ~time:c.clock ~core:ctx.th.tcore ~pid:ctx.th.pid
        ~arg2:(if copied then 1 else 0)
        Trace.Cow_fault va;
      translate_miss ctx c va ~write (Tlb.lookup c.tlb ~vpage)
    end
    else raise (Page_fault { vaddr = va; write })
  else s

(* The TLB slot through which [va] is accessed on [c], the caller's
   core. *)
let[@inline] translate ctx c va ~write =
  let s = Tlb.lookup c.tlb ~vpage:(va / page_size) in
  if s >= 0 && ((not write) || (Tlb.pte c.tlb s).Pte.writable) then s
  else translate_miss ctx c va ~write s

let[@inline] frame_pa pte va = (pte.Pte.frame * page_size) + (va land (page_size - 1))

(* One cache access at [pa], charged to [c], the caller's core. *)
let[@inline] charge_access ctx c pa ~write = charge_on ctx c (Cache.access c.cache ~addr:pa ~write)

(* ---- data access ---- *)

(* The body of every data access: safe point, check, translation and
   cache charge. Returns the physical address. [moved] selects the fault
   payload. Never inlined, so that each accessor stays small enough to
   inline into its caller, where a stored [Int64] need not be boxed. *)
let[@inline never] data_access ctx cap va ~width ~write ~op ~moved =
  let c = core_of ctx in
  poll ctx c;
  if not (Capability.authorizes cap va ~width (if write then Perms.store else Perms.load)) then
    cap_fault cap va ~moved ~op;
  let pa = frame_pa (Tlb.pte c.tlb (translate ctx c va ~write)) va in
  charge_access ctx c pa ~write;
  pa

let load_u64 ctx cap =
  let pa =
    data_access ctx cap (Capability.addr cap) ~width:8 ~write:false ~op:"load_u64" ~moved:false
  in
  Mem.read_u64 ctx.m.mem pa

let store_u64 ctx cap v =
  let pa =
    data_access ctx cap (Capability.addr cap) ~width:8 ~write:true ~op:"store_u64" ~moved:false
  in
  Mem.write_u64 ctx.m.mem pa v

let touch ctx cap ~write =
  ignore (data_access ctx cap (Capability.addr cap) ~width:1 ~write ~op:"touch" ~moved:false)

let touch_u64_at ctx cap va =
  ignore (data_access ctx cap va ~width:8 ~write:false ~op:"load_u64" ~moved:true)

let store_u64_at ctx cap va v =
  let pa = data_access ctx cap va ~width:8 ~write:true ~op:"store_u64" ~moved:true in
  Mem.write_u64 ctx.m.mem pa v

let load_u64_bit ctx cap va ~bit =
  let pa = data_access ctx cap va ~width:8 ~write:false ~op:"load_u64" ~moved:true in
  Mem.read_u64_bit ctx.m.mem pa bit

let rmw_bits_at ctx cap va ~lo ~hi ~set =
  let pa = data_access ctx cap va ~width:8 ~write:true ~op:"rmw_bits_at" ~moved:true in
  (* one extra cache access for the read half; no safe point in between *)
  charge_access ctx (core_of ctx) pa ~write:false;
  Mem.update_bits ctx.m.mem pa ~lo ~hi ~set

let zero ctx cap =
  safe_point ctx;
  if not (Capability.can_store cap) then
    raise (Capability_fault { cap; op = "zero"; vaddr = Capability.addr cap });
  let base = Capability.base cap and len = Capability.length cap in
  let c = core_of ctx in
  let va = ref base in
  while !va < base + len do
    let pa = frame_pa (Tlb.pte c.tlb (translate ctx c !va ~write:true)) !va in
    let n = Int.min (base + len) ((!va lor (page_size - 1)) + 1) - !va in
    (* one streaming write per 64 bytes of the piece, counted from its
       first line (DESIGN.md, "Known modelling deviations") *)
    charge_on ctx c
      (Cache.access_stream_lines c.cache ~addr:pa ~write:true
         ~n:((n + Cache.line_size - 1) / Cache.line_size));
    Mem.fill ctx.m.mem ~lo:pa ~hi:(pa + n) 0;
    va := !va + n
  done

(* Capability load generation fault (§4.1) on a tagged load through TLB
   slot [s] at [va]: trap, and let the registered handler bring the page
   to the current generation. The handler may run other threads, which
   may refill [s]; the refresh re-latches only the fill the fault went
   through, and the checks read that fill's PTE, as its re-latched bit
   would be. The caller re-executes the load. *)
let clg_fault ctx c s va =
  let pte = Tlb.pte c.tlb s and stamp = Tlb.stamp c.tlb s in
  ctx.m.clg_faults <- ctx.m.clg_faults + 1;
  trace_emit ctx.m ~time:c.clock ~core:ctx.th.tcore ~pid:ctx.th.pid Trace.Clg_fault va;
  charge ctx Cost.trap;
  match Hashtbl.find_opt ctx.m.clg_handlers (Aspace.asid ctx.th.asp) with
  | None ->
      (* No software component installed: the PTE may already be
         current (stale TLB); refresh and re-check. *)
      Tlb.refresh c.tlb s ~stamp;
      if pte.Pte.clg <> c.clg then failwith "CLG fault with no handler installed"
  | Some h ->
      charge ctx Cost.clg_fault_fixed;
      h ctx ~vaddr:va pte;
      Tlb.refresh c.tlb s ~stamp;
      if pte.Pte.clg <> c.clg && not pte.Pte.load_trap then
        failwith "CLG fault handler did not update the generation"

let rec load_cap_at ctx cap va =
  let c = core_of ctx in
  poll ctx c;
  if not (Capability.authorizes cap va ~width:granule Perms.load) then
    cap_fault cap va ~moved:true ~op:"load_cap";
  if va land (granule - 1) <> 0 then cap_fault cap va ~moved:true ~op:"load_cap(align)";
  let s = translate ctx c va ~write:false in
  let pte = Tlb.pte c.tlb s in
  let pa = frame_pa pte va in
  charge_access ctx c pa ~write:false;
  if Mem.read_tag ctx.m.mem pa && (Tlb.clg c.tlb s <> c.clg || pte.Pte.load_trap) then begin
    clg_fault ctx c s va;
    load_cap_at ctx cap va
  end
  else begin
    let v = Mem.read_cap ctx.m.mem pa in
    let v =
      if
        v.Capability.tag
        && not
             (Capability.authorizes cap va ~width:granule
                (Perms.union Perms.load Perms.load_cap))
      then Capability.clear_tag v
      else v
    in
    if Hashtbl.length ctx.m.load_filters = 0 then v
    else
      match Hashtbl.find_opt ctx.m.load_filters (Aspace.asid ctx.th.asp) with
      | Some f when v.Capability.tag -> f ctx v
      | Some _ | None -> v
  end

let load_cap ctx cap = load_cap_at ctx cap (Capability.addr cap)

let store_cap_at ctx cap va v =
  let c = core_of ctx in
  poll ctx c;
  if not (Capability.authorizes cap va ~width:granule Perms.store) then
    cap_fault cap va ~moved:true ~op:"store_cap";
  if va land (granule - 1) <> 0 then cap_fault cap va ~moved:true ~op:"store_cap(align)";
  let tagged = v.Capability.tag in
  if
    tagged
    && not (Capability.authorizes cap va ~width:granule (Perms.union Perms.store Perms.store_cap))
  then cap_fault cap va ~moved:true ~op:"store_cap(perm)";
  let pte = Tlb.pte c.tlb (translate ctx c va ~write:true) in
  if tagged && not pte.Pte.cap_store then cap_fault cap va ~moved:true ~op:"store_cap(page)";
  let pa = frame_pa pte va in
  charge_access ctx c pa ~write:true;
  if tagged then begin
    (* hardware capability-dirty tracking (§4.2) *)
    if not pte.Pte.cap_dirty then begin
      pte.Pte.cap_dirty <- true;
      charge_on ctx c 3
    end;
    match ctx.m.store_hook with Some h -> h ~vaddr:va v | None -> ()
  end;
  Mem.write_cap ctx.m.mem pa v

let store_cap ctx cap v = store_cap_at ctx cap (Capability.addr cap) v

(* ---- kernel-mode physical access ---- *)

(* Transient tag-read corruption (chaos tag hook): the tag bit arrives
   with bad parity, the hardware detects it, charges a trap plus a
   repeat access, and re-reads. The loop terminates because the hook
   models *transient* upsets (the engine disarms each hit); a hook that
   corrupted a read forever would spin, which is the correct model of
   unrecoverable memory. Only the sweep's reads consult the hook, so the
   event's arg2 is always 1. *)
let rec tag_retry ctx ~pa =
  match ctx.m.tag_hook with
  | Some h when h ~pa ->
      trace_emit ctx.m ~time:(core_of ctx).clock ~core:ctx.th.tcore
        ~pid:ctx.th.pid ~arg2:1 Trace.Tag_corruption pa;
      charge ctx (Cost.trap + Cache.access (core_of ctx).cache ~addr:pa ~write:false);
      tag_retry ctx ~pa
  | Some _ | None -> ()

(* The cost of one sweep granule read. *)
let[@inline] charge_kern_read ctx ~pa ~nt =
  let c = core_of ctx in
  charge_on ctx c
    (if nt then Cache.access_nt c.cache ~addr:pa ~write:false
     else Cache.access_stream c.cache ~addr:pa ~write:false)

let[@inline] kern_read_cap ctx ~pa ~nt =
  charge_kern_read ctx ~pa ~nt;
  (match ctx.m.tag_hook with None -> () | Some _ -> tag_retry ctx ~pa);
  Mem.read_cap ctx.m.mem pa

let kern_read_cap_nt ctx ~pa = kern_read_cap ctx ~pa ~nt:true
let kern_read_cap_stream ctx ~pa = kern_read_cap ctx ~pa ~nt:false
let kern_read_tagged ctx ~non_temporal ~pa = charge_kern_read ctx ~pa ~nt:non_temporal

let kern_clear_tag ctx ~pa =
  charge_access ctx (core_of ctx) pa ~write:true;
  Mem.clear_tag ctx.m.mem pa

let kern_access ctx ~pa ~write = charge_access ctx (core_of ctx) pa ~write

let tag_hook_armed m = m.tag_hook <> None

let chaos_armed m =
  m.tag_hook <> None || m.ack_hook <> None || m.drain_hook <> None
  || m.sched_oracle <> None

let load_filter_armed m = Hashtbl.length m.load_filters > 0

(* Batched sweep read of [count] consecutive known-untagged granules: a
   single charge covering exactly what [count] [kern_read_cap_stream]
   (resp. [_nt]) calls would have cost, without materialising the
   untagged capability values. Only sound when no tag read hook is armed
   ([tag_hook_armed] is false): the per-granule loop consults the hook on
   every read, and this helper does not. *)
let kern_read_untagged_run ctx ~non_temporal ~pa ~count =
  let c = core_of ctx in
  charge_on ctx c
    (if non_temporal then Cache.access_nt_run c.cache ~addr:pa ~write:false ~count
     else Cache.access_stream_run c.cache ~addr:pa ~write:false ~count)

(* ---- VM operations ---- *)

let with_pmap_lock ctx f =
  let pmap = Aspace.pmap ctx.th.asp in
  let who = ctx.th.tid in
  let contended = Pmap.lock pmap ~who in
  charge ctx (if contended then 2 * Cost.pmap_lock else Cost.pmap_lock);
  match f () with
  | v ->
      Pmap.unlock pmap ~who;
      v
  | exception e ->
      Pmap.unlock pmap ~who;
      raise e

(* Invalidate [vpages] on every core that has the given address space
   installed (all cores when [asid] is omitted — the machine-wide IPI of
   the single-process model). The IPI protocol is acknowledged: a core
   whose ack is lost (chaos ack hook) is re-IPI'd, bounded by
   [max_shootdown_retries]; exhausting the bound is a hard protocol
   failure since revocation soundness depends on the invalidation. *)
let max_shootdown_retries = 4

let tlb_shootdown ?asid ctx ~vpages =
  if vpages <> [] then begin
    let hit c = match asid with None -> true | Some a -> c.casid = a in
    let unacked =
      ref (Array.to_list (Array.map (fun c -> c.cid) ctx.m.cores)
           |> List.filter (fun cid -> hit ctx.m.cores.(cid)))
    in
    let attempt = ref 0 in
    while !unacked <> [] do
      if !attempt > max_shootdown_retries then
        failwith "tlb_shootdown: ack never arrived";
      let still = ref [] in
      List.iter
        (fun cid ->
          let c = ctx.m.cores.(cid) in
          Tlb.invalidate_pages c.tlb ~vpages;
          charge ctx Cost.tlb_shootdown_per_core;
          let lost =
            match ctx.m.ack_hook with Some h -> h ~core:cid | None -> false
          in
          if lost then begin
            (* The invalidation may or may not have landed before the
               ack was dropped; resending is idempotent, so treat the
               whole core as un-acked and retry. *)
            trace_emit ctx.m ~time:(core_of ctx).clock ~core:ctx.th.tcore
              ~pid:ctx.th.pid ~arg2:(!attempt + 1) Trace.Shootdown_retry cid;
            still := cid :: !still
          end)
        !unacked;
      unacked := List.rev !still;
      incr attempt
    done;
    trace_emit ctx.m ~time:(core_of ctx).clock ~core:ctx.th.tcore
      ~pid:ctx.th.pid Trace.Tlb_shootdown (List.length vpages)
  end

let map ctx ~vaddr ~len ~writable =
  with_pmap_lock ctx (fun () ->
      let fresh = Aspace.map_range ctx.th.asp ~vaddr ~len ~writable in
      charge ctx (fresh * (Cost.page_zero + Cost.pte_update)))

(* Switch the calling thread to another address space immediately:
   exec's tail end. The core takes a full TLB flush and resyncs its CLG
   bit from the new space's generation. *)
let adopt_aspace ctx a =
  ctx.th.asp <- a;
  let c = core_of ctx in
  Tlb.flush c.tlb;
  c.casid <- Aspace.asid a;
  c.clg <- Pmap.generation (Aspace.pmap a);
  charge ctx Cost.aspace_switch

(* ---- scheduler ---- *)

(* [eligible_time] is defined above, next to the yield fast path. *)

(* The earliest-eligible thread of the list, ties going to the one that
   ran least recently, against the best so far ([bt], [bth]). *)
let rec best_eligible m bt bth = function
  | [] -> bth
  | th :: rest ->
      let t = eligible_time m th in
      if t < 0 || bt < t || (bt = t && bth.last_ran <= th.last_ran) then
        best_eligible m bt bth rest
      else best_eligible m t th rest

let rec first_eligible m = function
  | [] -> None
  | th :: rest ->
      let t = eligible_time m th in
      if t < 0 then first_eligible m rest else Some (best_eligible m t th rest)

let pick m =
  match (m.sched_oracle, first_eligible m m.threads) with
  | None, b | _, (None as b) -> b
  | Some oracle, Some default ->
      (* Present every eligible thread (m.threads is in spawn order, so
         the candidate list is deterministic) and run the oracle's
         choice at its own eligible time. Any eligible thread is a legal
         next step: wake times and core clocks are re-imposed by
         [resume], so the oracle only reorders commits, never violates
         causality. *)
      let cands = List.filter (fun th -> eligible_time m th >= 0) m.threads in
      let chosen = oracle ~default cands in
      if eligible_time m chosen < 0 then
        invalid_arg "Machine: scheduling oracle returned an ineligible thread";
      Some chosen

let dump_states m =
  let b = Buffer.create 256 in
  List.iter
    (fun th ->
      let s =
        match th.state with
        | Created -> "created"
        | Runnable -> "runnable"
        | Running -> "running"
        | Sleeping -> Printf.sprintf "sleeping(until %d)" th.wake_time
        | Waiting _ -> "waiting"
        | Waiting_stw -> "waiting-stw"
        | Parked _ -> "parked"
        | Finished -> "finished"
      in
      Buffer.add_string b (Printf.sprintf "%s[%d]@core%d: %s; " th.name th.tid th.tcore s))
    m.threads;
  Buffer.contents b

let on_finish m th =
  th.state <- Finished;
  match m.stw with
  | Some s when List.exists (fun x -> x.tid = th.tid) s.pending ->
      s.pending <- remove_thread s.pending th;
      s.stopped_at <- Int.max s.stopped_at m.cores.(th.tcore).clock;
      if s.pending = [] then wake_initiator s
  | Some _ | None -> ()

let resume m th =
  let c = m.cores.(th.tcore) in
  let t = eligible_time m th in
  assert (t >= 0);
  c.clock <- Int.max c.clock t;
  if c.resident <> th.tid then begin
    if c.resident >= 0 then begin
      m.ctx_switches <- m.ctx_switches + 1;
      (match m.trace with
      | Some t ->
          Trace.emit t ~time:c.clock ~core:c.cid ~pid:th.pid
            Trace.Context_switch th.tid
      | None -> ());
      c.clock <- c.clock + Cost.context_switch;
      c.busy <- c.busy + Cost.context_switch;
      th.cpu <- th.cpu + Cost.context_switch
    end;
    c.resident <- th.tid
  end;
  (* Address-space switch: full TLB flush plus CLG resync from the
     incoming space's generation. Free when the space is already
     installed — in particular always free in single-process runs. *)
  let asid = Aspace.asid th.asp in
  if c.casid <> asid then begin
    Tlb.flush c.tlb;
    c.casid <- asid;
    c.clg <- Pmap.generation (Aspace.pmap th.asp);
    c.clock <- c.clock + Cost.aspace_switch;
    c.busy <- c.busy + Cost.aspace_switch;
    th.cpu <- th.cpu + Cost.aspace_switch
  end;
  th.slice_start <- c.clock;
  th.sp_checked <- false;
  m.seq <- m.seq + 1;
  th.last_ran <- m.seq;
  th.state <- Running;
  match th.cont with
  | Some k ->
      th.cont <- None;
      if th.killed then
        (* Tear the fiber down through its own stack so Fun.protect
           finalizers (gate releases, pmap unlocks) still run; the
           exception lands in this thread's [exnc] below. *)
        Effect.Deep.discontinue k Thread_killed
      else Effect.Deep.continue k ()
  | None when th.killed -> on_finish m th
  | None ->
      let handler =
        {
          Effect.Deep.retc = (fun () -> on_finish m th);
          exnc =
            (fun e ->
              match e with Thread_killed -> on_finish m th | e -> raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Yield ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      th.cont <- Some k)
              | _ -> None);
        }
      in
      let ctx = { m; th } in
      Effect.Deep.match_with
        (fun () ->
          checkpoint ctx;
          th.body ctx)
        () handler

let run m =
  let rec loop () =
    match pick m with
    | Some th ->
        resume m th;
        (* If the thread left itself Running (yield without state change),
           make it runnable again. *)
        if th.state = Running then th.state <- Runnable;
        loop ()
    | None ->
        if List.exists (fun th -> th.state <> Finished) m.threads then
          raise (Deadlock (dump_states m))
  in
  loop ()

(* ---- statistics ---- *)

type totals = {
  wall_cycles : int;
  cpu_cycles : int;
  bus_transactions : int;
  context_switches : int;
  stw_count : int;
  clg_faults : int;
}

let bus_transactions_of_core m i = Cache.bus_total (Cache.stats m.cores.(i).cache)

let totals m =
  let cpu = Array.fold_left (fun acc c -> acc + c.busy) 0 m.cores in
  let bus =
    Array.fold_left (fun acc c -> acc + Cache.bus_total (Cache.stats c.cache)) 0 m.cores
  in
  {
    wall_cycles = global_time m;
    cpu_cycles = cpu;
    bus_transactions = bus;
    context_switches = m.ctx_switches;
    stw_count = m.stw_count;
    clg_faults = m.clg_faults;
  }

let clg_fault_count (m : t) = m.clg_faults
