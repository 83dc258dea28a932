(** The in-kernel revocation subsystem: four interchangeable strategies.

    - [Paint_sync]: quarantine bookkeeping only; no sweeps, no safety.
      Characterizes the prerequisite overheads (§5's "Paint+sync").
    - [Cherivoke]: one stop-the-world sweep of every page that has ever
      been capability-dirty (the paper's "CHERIvoke": Cornucopia
      eschewing its concurrent phase).
    - [Cornucopia]: a concurrent sweep of all such pages (clearing their
      capability-dirty bits, with shootdowns), then a stop-the-world
      re-sweep of pages re-dirtied meanwhile, plus register-file and
      kernel-hoard scans (§2.2.5).
    - [Reloaded]: a stop-the-world that only toggles the per-core
      capability-load generation and scans registers/hoards, then a
      fully concurrent background sweep racing the application's
      self-healing load-barrier faults (§3.2, §4.3).

    The revoker runs as a dedicated non-user thread; allocator shims
    enqueue batches of painted quarantine and are called back when a
    batch's epoch has closed. *)

type strategy =
  | Paint_sync
  | Cherivoke
  | Cornucopia
  | Reloaded
  | Cheriot_filter
      (** §6.3: no load generations; every capability load is filtered
          against the revocation bitmap directly (modelled as a
          tightly-coupled probe), so freed objects become inaccessible
          immediately and pages never need re-scanning. *)

val strategy_name : strategy -> string

val all_strategies : strategy list
(** The four strategies of the paper's evaluation. *)

val extended_strategies : strategy list
(** Including [Cheriot_filter]. *)

type batch = { entries : int array; bytes : int }
(** Quarantined regions, already painted, as flat [(addr, size)] pairs:
    region [i]'s base at [entries.(2 * i)] and its size at
    [entries.(2 * i + 1)]. [bytes] is the sum of the sizes. *)

type fault = Skip_shootdown | Skip_hoard_scan | Early_dequarantine
(** Deliberate protocol mutations for sanitizer self-tests:
    - [Skip_shootdown]: Cornucopia omits the per-page TLB shootdown after
      clearing capability-dirty bits (§2.2.5 violation — racing stores
      through stale TLB entries escape the re-sweep).
    - [Skip_hoard_scan]: root scans omit the kernel capability hoards
      (§4.4 violation — hoarded stale capabilities survive the epoch).
    - [Early_dequarantine]: batches are handed back to the allocator at
      epoch {e begin} instead of epoch end (§2.2.3 violation — memory is
      reused while stale capabilities still exist). *)

val fault_name : fault -> string

val all_faults : fault list
(** Every mutation, in the order the checkers report them. *)

val fault_of_name : string -> fault option
(** Inverse of {!fault_name} — replay files and CLI flags name faults. *)

val strategy_of_name : string -> strategy option
(** Inverse of {!strategy_name} over {!extended_strategies}. *)

exception Induced_crash
(** Raised by a chaos sweep hook (see {!set_sweep_hook}) to model the
    sweep machinery dying mid-page. Never escapes the revoker: the epoch
    retries from its checkpoint or is aborted. *)

val strategy_code : strategy -> int
(** Stable small-integer encoding for trace event arguments
    (Paint_sync = 0 … Cheriot_filter = 4). *)

val downshift_of : strategy -> strategy option
(** The graceful-degradation ladder: [Reloaded -> Cornucopia ->
    Cherivoke], [Cheriot_filter -> Cherivoke]; [Cherivoke] is the floor
    and [Paint_sync] (no safety) is never a target. *)

type recovery = {
  watchdog_timeout : int;
      (** quiesce watchdog deadline, cycles; [0] disarms the watchdog *)
  max_quiesce_retries : int;
      (** stop-the-world attempts before the epoch is aborted *)
  backoff_base : int;
      (** first retry backoff, cycles; doubles per consecutive failure *)
  max_crash_retries : int;
      (** sweep-crash resumptions before the epoch is aborted *)
  max_epoch_aborts : int;
      (** consecutive epoch aborts before the strategy downshifts *)
  clg_storm_threshold : int;
      (** per-epoch CLG fault count above which Reloaded downshifts;
          [max_int] disables the trigger *)
  malloc_throttle : int;
      (** cycles of [Mrs.malloc] backpressure per call while epochs are
          aborting *)
}

val default_recovery : recovery
(** Watchdog armed at 200M cycles (unreachable in fault-free runs, so
    default behaviour is unchanged), 3 quiesce retries, 5 crash retries,
    downshift after 3 consecutive aborts, storm trigger disabled. *)

type recovery_stats = {
  epoch_aborts : int;
  sweep_crash_retries : int;
  epoch_resumes : int;
      (** crashed sweeps resumed from their checkpoint (each traced
          [Epoch_resume]); a crash past the retry budget aborts instead *)
  quiesce_timeouts : int;
  backoff_cycles : int;
  downshifts : int;
}

val zero_recovery_stats : recovery_stats
(** A revoker that has recovered from nothing. *)

type phase_record = {
  epoch_index : int; (** counter value during the revocation (odd) *)
  requested_at : int; (** cycle the epoch's work began *)
  stw_cycles : int; (** world-stopped duration (0 for Paint_sync) *)
  concurrent_cycles : int; (** background phase duration *)
  fault_cycles : int; (** cumulative app-thread CLG fault handling *)
  fault_count : int;
  pages_visited : int;
  caps_revoked : int;
  bytes_processed : int; (** quarantine bytes revoked this epoch *)
}

type t

val create :
  Sim.Machine.t ->
  strategy:strategy ->
  core:int ->
  ?non_temporal:bool ->
  ?background_threads:int ->
  ?pte_flag_barrier:bool ->
  ?recovery:recovery ->
  ?hoards:Kernel.Hoard.t ->
  ?aspace:Vm.Aspace.t ->
  ?pid:int ->
  unit ->
  t
(** [background_threads] > 1 spawns §7.1-style helper threads (on
    cores 1 and 0 in turn) that share Reloaded's and
    CHERIoT's background sweeps. [pte_flag_barrier] enables the §4.1
    ablation in which starting an epoch updates every PTE under
    stop-the-world instead of toggling the in-core generation bit.
    Builds the revoker, registers the load-barrier fault handler
    (Reloaded) or load filter (CHERIoT) for [aspace]'s asid, and spawns
    the revoker thread on [core]; must be called before
    {!Sim.Machine.run}. [aspace] defaults to the machine's initial
    address space and [pid] to 0, reproducing the single-process
    behaviour: the revoker sweeps only [aspace]'s pages, stops only
    [pid]'s threads, and shoots down only cores running [aspace]. *)

val strategy : t -> strategy
(** The {e current} strategy: graceful degradation may have downshifted
    it from the one passed to {!create}. *)

val pid : t -> int
val aspace : t -> Vm.Aspace.t
val epoch : t -> Epoch.t
val revmap : t -> Revmap.t
val hoards : t -> Kernel.Hoard.t

val inject_fault : t -> fault option -> unit
(** Arm (or disarm, with [None]) a protocol mutation. Only sanitizer
    self-tests should ever set this: the resulting runs are deliberately
    temporal-safety-unsound. *)

val injected_fault : t -> fault option

val set_on_clean : t -> (Sim.Machine.ctx -> batch -> unit) -> unit
(** Callback invoked (on the revoker thread) for each batch whose
    revocation epoch has completed; the mrs shim dequarantines there. *)

val set_on_abort : t -> (Sim.Machine.ctx -> unit) option -> unit
(** Callback invoked (on the revoker thread) immediately after an epoch
    abort retracts the counter. The mrs shim clamps its paint-epoch
    stamps there so they never sit above the restored counter. *)

val set_sweep_hook : t -> (Sim.Machine.ctx -> int -> unit) option -> unit
(** Chaos hook consulted at every page visit (argument: the vpage),
    before the page is swept, on whichever thread performs the visit. May
    raise {!Induced_crash} to model a sweep-thread crash; the epoch
    resumes from its checkpoint or aborts after [max_crash_retries]. *)

val recovery_stats : t -> recovery_stats
val consecutive_aborts : t -> int

val backpressure : t -> int
(** Cycles of per-call allocation throttle currently requested
    ([malloc_throttle] while epochs are aborting, else [0]). *)

val enqueue : t -> Sim.Machine.ctx -> batch -> unit
(** Hand a painted batch to the revoker and wake it. *)

val request_shutdown : t -> Sim.Machine.ctx -> unit
(** Drain outstanding batches, then let the revoker thread exit. *)

val in_flight : t -> bool
(** A revocation pass is currently running. *)

val currently_revoking : t -> (int * int) list
(** The quarantined regions being revoked by the in-flight epoch (empty
    between epochs), as [(addr, size)] pairs built on each call. Fork
    and invariant-checking tests read it. *)

val queued_entries : t -> (int * int) list
(** Regions in batches handed over but not yet begun, oldest first,
    built on each call.
    Together with {!currently_revoking} and the shim's fill buffer this
    enumerates every quarantined region — fork walks all three. *)

val barrier_armed : t -> bool
(** Reloaded only: the epoch-opening stop-the-world has completed, so the
    §3.2 invariant (no unchecked capability can be loaded or held) is in
    force. *)

val queued_bytes : t -> int
val records : t -> phase_record list
(** Per-epoch phase records, oldest first. *)

val revocation_count : t -> int

val set_epoch_gate :
  t -> acquire:(Sim.Machine.ctx -> unit) -> release:(Sim.Machine.ctx -> unit) -> unit
(** Install cross-process scheduler hooks: [acquire] is called on the
    revoker thread before each epoch's work begins and [release] after it
    completes (also on abnormal exit). The default hooks are no-ops, so
    single-process runs are unaffected. *)

val set_epoch_governor : t -> (Sim.Machine.ctx -> unit) option -> unit
(** Install (or clear) an SLO governor hook, called on the revoker thread
    when work is pending but BEFORE the epoch begins (and before the
    cross-process gate is acquired, so deferral never holds the token).
    The hook may sleep to push the epoch into a load trough; batches that
    arrive while it sleeps are folded into the deferred epoch. *)

val set_sweep_pacer : t -> (Sim.Machine.ctx -> visited:int -> int) option -> unit
(** Install (or clear) a concurrent-sweep pacer. When armed, the
    background sweep of Cornucopia / Reloaded / CHERIoT runs in slices:
    before each slice the pacer is called with the pages [visited] so far
    and returns the next slice's page budget (clamped to ≥ 1); it may
    sleep first to yield the core back to the application. A pacer forces
    the whole sweep onto the revoker thread — helper threads cannot
    honour a per-slice budget — so the quantum bound is exact. *)

val inherit_from : t -> parent:t -> unit
(** Fork support (§4.3): seed this (child) revoker's sweep state from the
    parent's — visit set and painted-bit population — and arm a one-shot
    full-heap visit so the child's first Reloaded epoch is sound despite
    the two capability-load generations inherited across the fork. *)

val rebind : t -> aspace:Vm.Aspace.t -> unit
(** Exec support: point the revoker (and its shadow bitmap, service
    threads, and load barrier registration) at a fresh address space,
    dropping all sweep state. The quarantine must already be empty. *)
