(** The simulated multicore CHERI machine.

    Cores execute cooperative threads (OCaml effect-based coroutines) under
    a deterministic discrete-event scheduler: the runnable thread whose
    core has the smallest local clock runs next, so cross-core orderings
    are faithful to the simulated timeline. Threads charge cycles
    explicitly for every architectural action; memory operations go
    through per-core TLBs and caches, producing the latency and
    bus-traffic figures the evaluation reports.

    Architectural features modelled (the ones the paper's revokers need):
    - tagged memory with capability load/store instructions;
    - per-PTE capability-dirty bits set on capability stores (§2.2.4);
    - per-PTE capability load generation vs. an in-core generation bit,
      trapping mismatched tagged loads to a registered handler (§4.1);
    - TLBs that latch PTE snapshots, with explicit shootdowns;
    - a [thread_single]-style stop-the-world that quiesces user threads,
      charging for in-flight syscall draining (§4.4). *)

type t
type thread

type ctx
(** Execution context: the machine plus the current thread. Every
    operation a simulated program performs takes the [ctx] it was given
    at spawn time. *)

(** {1 Construction} *)

type config = {
  cores : int; (** number of cores (4 on Morello) *)
  mem_bytes : int; (** physical memory size *)
  heap_bytes : int; (** heap region of the single simulated process *)
  quantum : int; (** cycles between safe points *)
  seed : int;
}

val default_config : config
val create : config -> t

(** {1 Topology and global state} *)

val mem : t -> Tagmem.Mem.t
val aspace : t -> Vm.Aspace.t
val layout : t -> Vm.Layout.t
val prng : t -> Prng.t
val num_cores : t -> int
val core_clock : t -> int -> int
(** Local clock of a core, in cycles. *)

val global_time : t -> int
(** Max over core clocks. *)

val cache_stats : t -> int -> Tagmem.Cache.stats
(** Cache/bus statistics of a core. *)

(** {1 Threads} *)

val spawn :
  t ->
  name:string ->
  core:int ->
  ?user:bool ->
  ?pid:int ->
  ?aspace:Vm.Aspace.t ->
  (ctx -> unit) ->
  thread
(** Create a thread pinned to [core]. [user] threads (default [true]) are
    quiesced by stop-the-world; revoker/system threads pass
    [~user:false]. [pid] (default 0) and [aspace] (default: the
    machine's primordial space) attach the thread to a process; the
    single-process world never passes either. The body runs when {!run}
    is called. *)

val run : t -> unit
(** Drive the machine until every thread has finished. Raises
    [Deadlock] if live threads remain but none can make progress. *)

exception Deadlock of string

val thread_name : thread -> string

val thread_id : thread -> int
(** Stable spawn-order identifier, unique within a machine — the handle
    scheduling oracles and replay schedules use to name a thread. *)

val thread_cpu_cycles : thread -> int
(** Total on-core cycles this thread has consumed. *)

val thread_pid : thread -> int
val regs : thread -> Regfile.t
val self : ctx -> thread
val machine : ctx -> t
val core_id : ctx -> int
val now : ctx -> int
(** The current thread's core clock. *)

val ctx_pid : ctx -> int
(** Process id of the current thread (0 in single-process runs). *)

val user_threads : t -> thread list

exception Thread_killed
(** Delivered inside a fiber torn down by {!kill_pid}: the scheduler
    discontinues the thread's stored continuation with this exception at
    its next resume, so [Fun.protect] finalizers on its stack run. *)

val kill_pid : t -> int -> int
(** Host-side external kill: mark every live user thread of the pid for
    teardown and make blocked ones schedulable so death is prompt.
    Threads parked under an active stop-the-world stay parked (they are
    already quiesced) and die after the release; a killed thread that a
    quiesce was still waiting on is removed from the pending set when it
    dies, so a kill can unstick a stalled pause rather than wedge it.
    Returns the number of threads marked. Non-user (revoker/service)
    threads are untouched — they must keep draining the dead process's
    quarantine. *)

val core_asid : t -> int -> int
(** Asid of the address space currently installed on a core. *)

val aspace_of_pid : t -> int -> Vm.Aspace.t option
(** Address space of any live thread belonging to [pid] — how analyses
    resolve a process's current space without holding a stale handle
    across [exec]. *)

val assign_aspace : thread -> Vm.Aspace.t -> unit
(** Host-side rebinding (exec): takes architectural effect — TLB flush,
    CLG resync — when the thread is next resumed. *)

val adopt_aspace : ctx -> Vm.Aspace.t -> unit
(** Switch the calling thread to another space immediately, flushing the
    core's TLB and resyncing its CLG bit; charges {!Cost.aspace_switch}. *)

(** {1 Time and synchronization} *)

val charge : ctx -> int -> unit
(** Consume cycles of pure computation (no safe point). *)

val safe_point : ctx -> unit
(** Possibly yield: preemption if the quantum expired, parking if a
    stop-the-world is pending. Simulated programs call this (or any
    memory operation, which calls it implicitly) often. The quantum is
    checked on every call; the stop-the-world checkpoint only on the
    first call after each resume, since no stop-the-world can be
    installed, nor this thread added to a pending set, while it runs
    uninterrupted. A thread released from one stop-the-world into
    another already pending parks again before its next access. *)

val sleep : ctx -> int -> unit
(** Block for the given number of cycles of wall time (off core). *)

type condvar

val condvar : unit -> condvar
val wait : ctx -> condvar -> unit
val broadcast : ctx -> condvar -> unit
(** Wake all waiters; they resume no earlier than the caller's now. *)

val yield : ctx -> unit
(** Unconditionally give up the core to same-core peers. *)

(** {1 Syscall modelling} *)

val enter_syscall : ctx -> drain:int -> unit
(** Mark the thread as executing a system call whose abort/completion
    would cost [drain] cycles if a stop-the-world arrives meanwhile. *)

val exit_syscall : ctx -> unit

(** {1 Stop-the-world} *)

type stw_report = {
  requested_at : int;
  stopped_at : int; (** all user threads parked *)
  released_at : int; (** world resumed *)
}

exception Quiesce_timeout of { stalled : int; waited : int }
(** A watchdogged stop-the-world gave up: [stalled] threads had still
    not parked at the deadline (0 when every thread parked but an
    uninterruptible syscall drain pushed the quiesce past it). The
    world has already been released — parked threads restored, the STW
    slot cleared, [Stw_abandon] emitted — when this reaches the caller,
    so retrying is always legal. *)

val stop_the_world :
  ctx -> ?scope:int list -> ?timeout:int -> (unit -> 'a) -> 'a * stw_report
(** [stop_the_world ctx f] quiesces every user thread (draining in-flight
    syscalls), runs [f] with the world stopped, releases, and reports the
    phase boundaries. Only non-user threads may call this.
    [?scope] restricts quiescence to the user threads of the listed
    pids — a per-process pause whose cost scales with that process's
    thread count, not the machine's (the multi-tenant point of §4.4).
    Omitted: every user thread, the original machine-wide pause.
    [?timeout] arms a quiesce watchdog: if the world has not stopped
    [timeout] cycles after the request, the pause is abandoned and
    {!Quiesce_timeout} raised ([f] never runs). Omitted: wait forever,
    the original behaviour. An exception escaping [f] (with or without
    a watchdog) still releases every parked thread before unwinding —
    the machine is never left stopped. *)

(** {1 Capability load generation (the load barrier)} *)

val toggle_clg : ctx -> unit
(** Flip the in-core generation bit of every core running the caller's
    address space, and that space's pmap generation for newly-installed
    PTEs. PTEs themselves are untouched (§4.1). Cores running other
    processes are unaffected (they resync at their next space switch);
    with a single process this is every core, the original machine-wide
    toggle. Must be called with the world stopped. *)

val core_clg : t -> int -> bool

val set_clg_fault_handler :
  t -> ?asid:int -> (ctx -> vaddr:int -> Vm.Pte.t -> unit) option -> unit
(** Handler invoked (in the faulting thread, trap cost already charged)
    when a tagged capability load hits a generation mismatch. The handler
    must bring the PTE to the current generation (or the load will fault
    forever). Registered per address space ([asid], default 0): each
    process's revoker handles only its own faults. [None] unregisters. *)

val set_cap_load_filter :
  t -> ?asid:int -> (ctx -> Cheri.Capability.t -> Cheri.Capability.t) option -> unit
(** CHERIoT-style architectural load filter (§6.3): applied to every
    tagged capability as it is loaded, with no trap. Per address space,
    like the CLG handler. *)

val set_cap_store_hook :
  t -> (vaddr:int -> Cheri.Capability.t -> unit) option -> unit
(** Observation hook for tagged capability stores (test instrumentation):
    called with the target address and the stored value. *)

(** {1 Fault-injection hooks}

    Generic callbacks the chaos engine ([lib/chaos]) installs; the
    machine knows nothing about fault schedules. All absent by
    default, in which case behaviour is exactly the unhooked machine. *)

val set_sched_oracle :
  t -> (default:thread -> thread list -> thread) option -> unit
(** Install (or clear) a scheduling oracle. When present, every
    scheduler pick calls it with the full list of eligible threads (in
    spawn order) and [default], the thread the built-in
    smallest-clock/least-recently-ran policy would choose; whatever it
    returns runs next. Returning [default] reproduces the unhooked
    machine exactly; returning any other eligible thread explores a
    different but causally legal interleaving (wake times and core
    clocks are still honoured at resume). The model checker ([lib/mc])
    drives the machine through inequivalent safe-point interleavings
    with this hook. Raises [Invalid_argument] if the oracle returns a
    thread that is not currently eligible. *)

val set_drain_hook : t -> (ctx -> int -> int) option -> unit
(** Rewrite the uninterruptible drain a thread declares on syscall
    entry — a "stuck quiesce" returns a drain longer than any watchdog
    deadline, so a pause that catches the thread mid-syscall times out. *)

val set_shootdown_ack_hook : t -> (core:int -> bool) option -> unit
(** Consulted once per core per shootdown attempt; [true] means that
    core's ack was lost. The IPI loop emits [Shootdown_retry] and
    resends (idempotent) up to a bound, then fails hard — revocation
    soundness depends on the invalidation landing. *)

val set_tag_read_hook : t -> (pa:int -> bool) option -> unit
(** Consulted on kernel-mode tag/capability reads (the sweep's access
    path); [true] means this read's tag bit arrived corrupted. The
    machine detects it (tag parity), emits [Tag_corruption], charges a
    trap plus a repeat access, and re-reads — transient upsets cost
    time but never corrupt a revocation verdict. *)

(** {1 Memory operations} (virtual addresses via capabilities) *)

exception
  Capability_fault of {
    cap : Cheri.Capability.t;
    op : string;
    vaddr : int;
  }
(** Raised when a dereference check fails — the simulated program's bug
    (or an attack being stopped). *)

exception Page_fault of { vaddr : int; write : bool }
(** Stores to copy-on-write pages do not raise this: they trap, privatise
    the frame ({!Vm.Aspace.cow_break}, charged), emit [Cow_fault], and
    retry transparently. *)

val load_u64 : ctx -> Cheri.Capability.t -> int64
val store_u64 : ctx -> Cheri.Capability.t -> int64 -> unit

val load_cap : ctx -> Cheri.Capability.t -> Cheri.Capability.t
(** Load the 16-byte granule at the capability's address. Subject to the
    load barrier: may invoke the CLG fault handler and re-execute. *)

val store_cap : ctx -> Cheri.Capability.t -> Cheri.Capability.t -> unit
(** Store a capability; sets the page's capability-dirty bit when storing
    a tagged value. *)

val touch : ctx -> Cheri.Capability.t -> write:bool -> unit
(** Data access for cost purposes only (cache + TLB), one granule. *)

(** {2 Address-parameterized accesses}

    Each [*_at] operation is the corresponding plain operation applied
    to [Capability.set_addr cap addr], without allocating the moved
    capability: the same safe point, charges, faults, load-barrier and
    filter behaviour, through the same body. A fault's payload is the
    moved capability. The access path of both SPEC interpreters. *)

val touch_u64_at : ctx -> Cheri.Capability.t -> int -> unit
(** [load_u64] at the given address with the value discarded — no
    simulated state differs from the load. *)

val store_u64_at : ctx -> Cheri.Capability.t -> int -> int64 -> unit
val load_cap_at : ctx -> Cheri.Capability.t -> int -> Cheri.Capability.t
val store_cap_at : ctx -> Cheri.Capability.t -> int -> Cheri.Capability.t -> unit

val load_u64_bit : ctx -> Cheri.Capability.t -> int -> bit:int -> bool
(** [load_u64] at the given address, returning only bit [bit]
    (0-indexed, LSB first) of the value: identical charges and faults,
    no [Int64] boxing. The revocation-map probe, which runs once per
    tagged granule swept, tests its shadow-bitmap words this way. *)

val rmw_bits_at : ctx -> Cheri.Capability.t -> int -> lo:int -> hi:int -> set:bool -> int
(** Atomic read-modify-write (LL/SC-style) of the 8-byte word at the
    given address: sets bits [lo, hi) (0-indexed, LSB first), or clears
    them with [~set:false], and returns how many bits changed. The update
    happens with no intervening safe point, charged as one write and one
    read, and allocates nothing. The revocation bitmap's paint/clear
    words are updated this way — a plain load;or;store pair can be
    preempted and resurrect bits the revoker just cleared. *)

val zero : ctx -> Cheri.Capability.t -> unit
(** Zero the capability's whole bounds (clearing tags), charging one
    streaming cache write per 64 bytes of each page piece, counted from
    the piece's first line — the allocator's reuse-time scrub. *)

(** {1 Kernel-mode access} (physical, no load barrier, cache-charged) *)

val kern_clear_tag : ctx -> pa:int -> unit
val kern_access : ctx -> pa:int -> write:bool -> unit
(** Charge one cache access without data movement (bitmap probes etc.). *)

val kern_read_cap_nt : ctx -> pa:int -> Cheri.Capability.t
(** Non-temporal variant (§5.6 ablation). *)

val kern_read_cap_stream : ctx -> pa:int -> Cheri.Capability.t
(** Streaming (prefetched) variant — the sweep loop's access pattern. *)

val kern_read_tagged : ctx -> non_temporal:bool -> pa:int -> unit
(** The charge of one [kern_read_cap_stream] (resp., with
    [~non_temporal:true], [kern_read_cap_nt]) call at [pa], without
    building the capability: the sweep kernel reads a tagged granule's
    words through {!Tagmem.Mem.cap_word} instead. Caller must have
    checked {!tag_hook_armed} is false. *)

val tag_hook_armed : t -> bool
(** A chaos tag-read hook is installed: per-granule kernel reads must be
    used on the sweep path so every read consults the hook. *)

val chaos_armed : t -> bool
(** Any fault-injection hook (tag read, shootdown ack, syscall drain) or
    scheduling oracle is installed. Drivers with a precompiled fast path
    (the op-stream interpreter) consult this to fall back to their
    reference loop: fault campaigns are about failure semantics, not
    throughput, and the reference interpreter is the authoritative
    semantics when threads can be torn down or epochs aborted mid-run. *)

val load_filter_armed : t -> bool
(** A capability-load filter is installed for some address space
    (CHERIoT-style load barrier, {!set_cap_load_filter}). Filters may
    strip tags on loads of {e live} data the program will touch again,
    which precompiled op streams cannot predict — another reason to
    fall back to the reference interpreter. *)

val kern_read_untagged_run : ctx -> non_temporal:bool -> pa:int -> count:int -> unit
(** Batched cost of reading [count] consecutive known-untagged granules
    starting at [pa], across as many cache lines as they cover: one
    charge, identical cycles, bus transactions and cache state to [count]
    individual [kern_read_cap_stream] (resp., with [~non_temporal:true],
    [kern_read_cap_nt]) calls. The sweep kernel's cost model. Caller
    must have checked {!tag_hook_armed} is false. *)

(** {1 VM operations} *)

val map : ctx -> vaddr:int -> len:int -> writable:bool -> unit
(** Map pages (zeroed), charging per fresh page. *)

val tlb_shootdown : ?asid:int -> ctx -> vpages:int list -> unit
(** Invalidate the pages on every core with address space [asid]
    installed (every core when omitted), charging the initiating thread
    per core hit. *)

val with_pmap_lock : ctx -> (unit -> 'a) -> 'a

(** {1 Tracing} *)

val attach_tracer : t -> Trace.t option -> unit
(** Attach (or detach) an event recorder: the machine then emits
    stop-the-world request/stop/release, CLG-fault, CLG-toggle,
    TLB-shootdown, and context-switch events; other layers may emit
    through the same recorder. Attaching enables the recorder's
    drop warning ({!Trace.set_warn_on_drop}) so a truncated ring is
    never silently observed. *)

val tracer : t -> Trace.t option

val trace_emit :
  t -> time:int -> core:int -> ?pid:int -> ?arg2:int -> Trace.kind -> int -> unit
(** Emit through the attached recorder, if any — the emission point used
    by higher layers (revoker, revmap, sweep) so analyses can subscribe
    to one stream. No-op without a tracer. *)

(** {1 Statistics} *)

type totals = {
  wall_cycles : int;
  cpu_cycles : int; (** sum of busy cycles over all cores *)
  bus_transactions : int;
  context_switches : int;
  stw_count : int;
  clg_faults : int;
}

val totals : t -> totals
val clg_fault_count : t -> int
val bus_transactions_of_core : t -> int -> int
