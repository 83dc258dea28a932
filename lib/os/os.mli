(** Multi-process address spaces over one physical machine, with a
    cross-process revocation scheduler.

    One simulated machine hosts several {e processes}, each owning an
    address space ({!Vm.Aspace}), an allocator clone, a quarantine shim
    and (in [Safe] modes) its own revoker, all sharing the physical
    frame pool. [fork] is copy-on-write: the two processes share every
    frame read-only until one writes (§4.3 of the paper — quarantine and
    the capability-load generation cross the fork with the bitmap and
    page tables). [exec] replaces a process's image under a fresh asid;
    [exit] hands the dying process's quarantine to a kernel reaper,
    which releases its frames only after a full revocation pass — frames
    are never returned to the shared pool while stale capabilities to
    them may survive in the zombie's quarantine.

    Per-process revokers stop only their own process's threads
    ({!Sim.Machine.stop_the_world} scoping), shoot down only cores
    running their address space, and sweep only their own pages. A
    global {!Revsched} serialises their epochs — one revocation pass
    machine-wide at a time — and arbitrates which pressure-bearing
    process sweeps next. *)

(** The cross-process revocation scheduler: a token each per-process
    revoker must hold for the duration of an epoch.

    Fairness invariants:
    - at most one process's revocation pass (and hence at most one
      stop-the-world phase) is in flight machine-wide at any instant;
    - [Round_robin] grants the token to the waiting process with the
      fewest grants so far, so no waiter starves: between two grants to
      the same process every other waiting process is granted once;
    - [Pressure] grants the token to the waiting process with the most
      quarantined bytes, bounding the worst per-process quarantine at
      the cost of unfairness to light allocators (which cannot starve
      forever either: their pressure only grows while they wait);
    - [Slo] grants the token to the waiting process whose serving load
      (per-process probe, see {!Revsched.set_load}) is lowest — its
      epoch disturbs the least live traffic — breaking load ties by
      pressure, so among idle processes it degenerates to [Pressure];
    - [Quota] grants the token to the waiting process whose quarantine
      {e debt} (per-process probe, see {!Revsched.set_debt}) is largest:
      quota charged for memory stuck in quarantine is the economic cost
      of revocation lag, so the tenant hurting most economically sweeps
      first. Without a ledger the probe defaults to quarantine pressure,
      degenerating to [Pressure];
    - ties break towards the lowest pid, keeping runs deterministic. *)
module Revsched : sig
  type policy = Round_robin | Pressure | Slo | Quota

  val policy_name : policy -> string

  val policy_of_name : string -> policy option
  (** Inverse of {!policy_name}, plus the alias [rr] for [round-robin]. *)

  type t

  val set_load : t -> pid:int -> (unit -> float) -> unit
  (** Install a process's load probe (in [\[0,1\]]; e.g. normalised queue
      depth from the serving layer), consulted by the [Slo] policy on
      every grant decision. Defaults to constantly 0 when never set.
      Raises [Invalid_argument] for an unregistered pid. *)

  val set_debt : t -> pid:int -> (unit -> int) -> unit
  (** Install a process's quarantine-debt probe (bytes of quota still
      charged for quarantined-but-unrevoked memory, from the tenant
      ledger), consulted by the [Quota] policy on every grant decision.
      Defaults to the quarantine-pressure probe when never set.
      Raises [Invalid_argument] for an unregistered pid. *)

  type stats = { pid : int; grants : int; wait_cycles : int }

  val stats : t -> stats list
  (** Per-process grant counts and cycles spent waiting for the token,
      sorted by pid. *)
end

type state = Running | Zombie | Reaped

type fault = Adopt_quarantine
    (** Deliberate protocol mutation for sanitizer self-tests: at fork,
        the child releases its inherited quarantine for immediate reuse
        instead of re-quarantining it — memory is recycled while the
        parent's copies of the stale capabilities are still live and the
        parent's epoch has not closed (a §2.2.3 violation across
        [fork]). *)

type proc
type t

val create :
  ?config:Sim.Machine.config ->
  ?policy:Ccr.Policy.t ->
  ?sched:Revsched.policy ->
  ?revoker_core:int ->
  ?recovery:Ccr.Revoker.recovery ->
  ?allocator:Ccr.Runtime.allocator_kind ->
  Ccr.Runtime.mode ->
  t
(** Build a machine (via {!Ccr.Runtime.create}) and a process table
    whose pid 0 ("init") owns the machine's initial address space and
    runtime. [sched] (default [Round_robin]) picks the revocation
    scheduling policy; [recovery] applies to every process's revoker
    (init's and forked children's). Call {!spawn_reaper} before
    {!Sim.Machine.run}. *)

val machine : t -> Sim.Machine.t
val sched : t -> Revsched.t
val init : t -> proc
(** Process 0. *)

val pid : proc -> int
val runtime : proc -> Ccr.Runtime.t
(** The process's own machine/allocator/mrs/revoker bundle — pass it to
    workload drivers exactly like a single-process {!Ccr.Runtime.t}. *)

val proc_aspace : proc -> Vm.Aspace.t
val proc_state : proc -> state
val find_proc : t -> int -> proc option
val procs : t -> proc list
(** Every process ever created, reaped ones included, in pid order. *)

val quarantine_bytes : t -> int
(** Σ {!Ccr.Mrs.quarantine_bytes} over {!procs}: the machine-wide
    quarantine. Allocates nothing. *)

val fork :
  t ->
  Sim.Machine.ctx ->
  parent:proc ->
  name:string ->
  core:int ->
  (Sim.Machine.ctx -> proc -> unit) ->
  proc
(** Copy-on-write fork. The child gets: a forked address space (shared
    frames, writable PTEs downgraded on both sides, CLG generation and
    per-PTE generation bits inherited, §4.3); a clone of the parent's
    allocator metadata; a fresh revoker + shim seeded from the parent's
    sweep state ({!Ccr.Revoker.inherit_from}); and the parent's
    still-painted quarantine re-enqueued in its own shim. [body] runs as
    the child's main thread on [core]; it should end with {!exit}.
    Raises [Invalid_argument] if the parent's allocator cannot fork
    (jemalloc). *)

val exec : t -> Sim.Machine.ctx -> proc -> name:string -> unit
(** Replace the calling process's image: drain its quarantine, drop its
    kernel hoards, release the old address space and continue in a fresh
    one (fresh asid, fresh allocator and shim, rebound revoker). Must be
    called by the process's own thread. *)

val exit : t -> Sim.Machine.ctx -> proc -> unit
(** Terminate the calling process: flush its remaining quarantine to its
    revoker and become a zombie. The reaper waits for the quarantine to
    drain (the revoker keeps running), shuts the revoker down, and only
    then returns the frames to the shared pool. *)

val kill : t -> Sim.Machine.ctx -> proc -> int
(** Forcibly terminate another process at an arbitrary epoch phase:
    every user thread of the victim is unwound (its [Fun.protect]
    finalizers run) at its next scheduling point — even threads parked
    in a stop-the-world or asleep in a syscall, so a kill can unstick a
    wedged quiesce. Leftover quarantine is flushed to the victim's
    still-running revoker and drained by the reaper exactly as for
    {!exit}; the epoch protocol is never shortcut. Emits [Proc_kill]
    (arg: threads killed, arg2: quarantine bytes flushed) and returns
    the thread count. Raises [Invalid_argument] on self-kill or if the
    victim is not running. *)

val spawn_reaper : t -> unit
(** Spawn the kernel reaper thread (pid 0, non-user, core 0). It exits
    once {!shutdown} has been called and every child is reaped — without
    it, {!exit} leaks zombies and {!Sim.Machine.run} deadlocks. *)

val wait_children : t -> Sim.Machine.ctx -> unit
(** Block until every forked process has been reaped. *)

val shutdown : t -> Sim.Machine.ctx -> unit
(** Init's tail end: finish pid 0's runtime (drain its revoker) and let
    the reaper exit. Call after {!wait_children}. *)

val inject_fault : t -> fault option -> unit
(** Arm (or disarm) the fork-time protocol mutation. Only sanitizer
    self-tests should set this. *)

val set_on_process : t -> (proc -> unit) -> unit
(** Hook invoked for each process created by {!fork} (and re-invoked on
    {!exec}); analyses use it to register per-process shadow state. *)

type proc_stats = {
  s_pid : int;
  s_name : string;
  s_state : state;
  elapsed_cycles : int; (** fork to exit, or to now for live processes *)
  quarantine_bytes : int;
  allocations : int;
}

val proc_stats : t -> proc -> proc_stats
