(** Bounded event tracing with lossless subscribers.

    A fixed-capacity ring of timestamped events, cheap enough to leave
    attached to a machine during benchmarking. The machine emits
    scheduler- and barrier-level events when a tracer is attached
    ({!Machine.attach_tracer}); higher layers (the revoker, the shim) may
    emit their own through the same recorder.

    The ring drops old events once full — fine for post-mortem dumps,
    fatal for protocol checkers. Analyses that must observe every event
    (e.g. [Analysis.Sanitizer]) register a {!subscribe} callback, which
    is invoked synchronously on every {!emit} and bypasses the ring
    entirely. *)

type kind =
  | Stw_request
  | Stw_stopped
  | Stw_release
  | Clg_fault
  | Context_switch
  | Epoch_begin  (** arg: epoch counter before the begin increment *)
  | Epoch_end  (** arg: epoch counter after the end increment *)
  | Revoke_batch  (** arg: quarantine bytes handed to the epoch *)
  | Paint  (** arg: region base; arg2: size (quarantine bitmap set) *)
  | Unpaint  (** arg: region base; arg2: size (bitmap cleared) *)
  | Quarantine_enq  (** arg: region base; arg2: size (batch to revoker) *)
  | Quarantine_deq  (** arg: region base; arg2: size (epoch closed) *)
  | Reuse  (** arg: region base; arg2: size (returned to allocator) *)
  | Tlb_shootdown  (** arg: number of pages invalidated on every core *)
  | Clg_toggle  (** arg: the new generation (0/1) all cores adopt *)
  | Hoard_scan  (** arg: hoarded capabilities scanned *)
  | Page_sweep  (** arg: frame base swept; arg2: capabilities revoked *)
  | Cow_fault  (** arg: faulting vaddr; arg2: 1 iff a physical copy was made *)
  | Proc_fork  (** arg: child pid; arg2: pages downgraded to CoW *)
  | Proc_exec  (** arg: pages released from the replaced image *)
  | Proc_exit  (** arg: quarantine bytes handed to the reaper *)
  | Proc_kill
      (** pid: the victim; arg: user threads torn down; arg2: quarantine
          bytes flushed to the victim's revoker *)
  | Sched_grant
      (** arg: pid granted the revocation token; arg2: waiters remaining *)
  | Stw_abandon
      (** arg: threads still unparked at the deadline; arg2: cycles waited.
          Emitted instead of [Stw_stopped] when a quiesce watchdog fires —
          the world was released without ever being fully stopped. *)
  | Epoch_abort
      (** arg: epoch counter restored (the value [Epoch_begin] carried);
          arg2: consecutive aborts so far. The in-flight revocation pass
          was given up; its batches remain quarantined. *)
  | Epoch_resume
      (** arg: current (odd) epoch counter; arg2: retry attempt number.
          A crashed sweep restarts from its checkpoint inside the SAME
          open epoch — the counter does not move. *)
  | Strategy_downshift
      (** arg: old strategy code; arg2: new strategy code
          (see [Revoker.strategy_code]) *)
  | Quarantine_abandoned
      (** arg: bytes dropped from the fill buffer at [Mrs.finish] *)
  | Tag_corruption
      (** arg: physical address whose tag read was corrupted (detected
          and re-read; arg2: 1 iff during a kernel sweep read) *)
  | Shootdown_retry
      (** arg: core whose shootdown ack was lost; arg2: retry attempt *)
  | Chaos_inject  (** arg: fault id in its schedule; arg2: fault-kind code *)
  | Req_shed
      (** arg: request id dropped by serving-layer admission control;
          arg2: 0 for a queue-depth drop, 1 for a deadline drop, 3 for a
          tenant over quota *)
  | Req_lost
      (** arg: request id admitted but never answered — dropped from the
          admission queue when its owner crashed; arg2: 0 *)
  | Governor_defer
      (** arg: cycles the revocation governor held an epoch back waiting
          for a load trough; arg2: queue depth when the epoch was finally
          released *)
  | Governor_force
      (** arg: quarantined bytes; arg2: queue depth. The governor stopped
          deferring because [Policy.should_block] pressure won — the
          epoch runs into live traffic. *)
  | Governor_quantum
      (** arg: pages granted to the next concurrent-sweep slice;
          arg2: pages already visited this epoch *)
  | Slo_violation
      (** arg: serving p99 latency estimate (µs, rounded); arg2: the SLO
          target (µs). Emitted by the governor when it must act while the
          tail is already over target. *)
  | Quota_charge
      (** pid: the tenant billed; arg: region base; arg2: bytes charged
          against the tenant's quota (allocation granularity — the
          size-class rounded size, not the requested size) *)
  | Quota_deny
      (** pid: the tenant refused; arg: bytes the allocation would have
          charged; arg2: 0 when the tenant's own quota was exhausted,
          1 when physical memory was exhausted and the over-commit
          policy could not reclaim enough *)
  | Quota_credit
      (** pid: the tenant refunded; arg: region base; arg2: bytes
          credited back. Emitted when the region leaves quarantine —
          always before the corresponding [Reuse]; quarantined-but-
          unrevoked memory still counts against its owner. *)
  | Free_all
      (** pid: the tenant; arg: live allocations handed to quarantine
          in one shot; arg2: total bytes (quota charge units) *)
  | Custom of string

val kind_name : kind -> string

type event = {
  time : int; (** cycles, initiator's core clock *)
  core : int;
  pid : int; (** owning process; 0 for kernel/single-process activity *)
  kind : kind;
  arg : int; (** kind-specific: vaddr, counter value, bytes, ... *)
  arg2 : int; (** secondary payload (region size, revoked count); 0 if unused *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 events; older events are overwritten.

    The requested capacity is rounded {e up} to the next power of two
    (4096 stays 4096; 3 becomes 4): the ring indexes with a bit mask on
    its zero-allocation emit path. {!capacity} reports the effective
    value; {!length}/{!total}/{!dropped} account against it. *)

val capacity : t -> int
(** Effective (power-of-two) ring capacity. *)

val emit : t -> time:int -> core:int -> ?pid:int -> ?arg2:int -> kind -> int -> unit

val subscribe : t -> (event -> unit) -> int
(** Register a lossless callback invoked on every subsequent {!emit}
    (before any ring overwrite can drop the event). Returns an id for
    {!unsubscribe}. Callbacks run in subscription order (oldest first);
    with no subscribers registered, [emit] skips event construction and
    dispatch entirely. *)

val unsubscribe : t -> int -> unit

val set_warn_on_drop : t -> bool -> unit
(** When enabled, the first event that overwrites an unread slot prints
    a one-shot warning to stderr. {!Machine.attach_tracer} enables this
    so a truncated ring is never silently mistaken for the full stream. *)

val length : t -> int
(** Events currently retained (≤ capacity). *)

val total : t -> int
(** Events emitted since creation (retained or not). *)

val dropped : t -> int
(** Events overwritten since creation. *)

val to_list : t -> event list
(** Retained events, oldest first. *)

val iter : t -> (event -> unit) -> unit
val clear : t -> unit

val pp_event : Format.formatter -> event -> unit
val dump : Format.formatter -> ?last:int -> t -> unit
(** Print the most recent [last] events (default: all retained),
    prefixed by an emitted/dropped accounting line when the ring has
    overflowed. *)
