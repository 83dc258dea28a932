(** The malloc revocation shim ("mrs", after Gutstein's CHERI malloc
    revocation shim the paper's userspace machinery is built on).

    Interposes quarantine between [free] and reuse:

    - [free] withdraws the block from the allocator, paints its
      revocation-bitmap bits (a real, charged memory write by the
      application thread), and adds it to the current quarantine buffer;
    - when policy fires, the buffer is handed to the {!Revoker} as a
      batch and a fresh buffer starts filling (double buffering, so
      frees continue during revocation);
    - when the revoker reports a batch's epoch closed, the shim clears
      the bitmap bits and releases the memory for reuse;
    - [malloc] blocks when quarantine is severely over policy while a
      revocation is still in flight (§5.3's long-tail mechanism).

    The {!Epoch} counter protocol is asserted throughout: memory is only
    ever released once {!Epoch.is_clean} holds for the counter value read
    when its batch was enqueued. *)

type t

val create :
  Sim.Machine.t ->
  alloc:Alloc.Backend.t ->
  revoker:Revoker.t ->
  ?policy:Policy.t ->
  unit ->
  t

val malloc : t -> Sim.Machine.ctx -> int -> Cheri.Capability.t
val free : t -> Sim.Machine.ctx -> Cheri.Capability.t -> unit

val finish : t -> Sim.Machine.ctx -> unit
(** End of workload: stop triggering and let the revoker thread drain
    and exit. Batches already handed to the revoker are still revoked
    and released. The fill buffer is abandoned (the process is exiting),
    as on a real system — accounted in {!abandoned_bytes} and announced
    with a [Quarantine_abandoned] trace event rather than dropped
    silently. *)

val abandoned_bytes : t -> int
(** Quarantine bytes dropped from the fill buffer (never revoked) by
    {!finish}. Every freed byte is either released for reuse or counted
    here: Σ [Reuse] sizes + [abandoned_bytes] = [sum_freed_bytes]. *)

val set_release_stall : t -> (Sim.Machine.ctx -> int) option -> unit
(** Chaos hook: called before each clean batch is released; the returned
    cycle count is slept on the revoker thread first, modelling a
    quarantine-drain stall (blocked [malloc]s keep waiting meanwhile). *)

val set_on_release : t -> (Sim.Machine.ctx -> addr:int -> size:int -> unit) option -> unit
(** Ledger hook: called on the revoker thread for each entry of a clean
    batch, {e before} its bitmap bits are cleared and before the [Reuse]
    trace event — so a quota credit is always observable strictly before
    the memory returns to the allocator. *)

val wait_release : t -> Sim.Machine.ctx -> unit
(** Block until the next quarantine batch is dequarantined (one bounded
    wait, not a full drain). Returns immediately when no quarantine is
    buffered, queued or in flight. Over-commit reclaim loops use this
    between [flush] retries. *)

val quarantine_bytes : t -> int
(** Current buffer + queued + in-flight quarantine. *)

val policy : t -> Policy.t
val allocator : t -> Alloc.Backend.t
val revoker : t -> Revoker.t

val buffered_entries : t -> (int * int) list
(** Quarantined regions still in the fill buffer (painted, not yet handed
    to the revoker), oldest first, built on each call. Exposed for fork:
    the child inherits copy-on-write views of these regions. *)

val flush : t -> Sim.Machine.ctx -> unit
(** Hand the current buffer to the revoker immediately, regardless of
    policy. No-op when the buffer is empty. *)

val adopt_quarantine : t -> (int * int) list -> unit
(** Fork support: append regions to the fill buffer {e without} painting
    them — the child's copy-on-write shadow bitmap already carries their
    bits. They flow through this shim's revoker like ordinary frees. *)

val wait_drained : t -> Sim.Machine.ctx -> unit
(** Block until every quarantined byte (buffered, queued and in-flight)
    has been dequarantined. Callers should {!flush} first; the reaper
    uses this to drain a zombie's quarantine before releasing its frames. *)

(** {1 Statistics (Table 2 of the paper)} *)

type stats = {
  revocations : int;
  sum_freed_bytes : int; (** total bytes that entered quarantine *)
  live_samples : int list; (** allocated heap sampled at each trigger *)
  quarantine_samples : int list; (** quarantine size at each trigger *)
  blocked_allocs : int; (** malloc/free operations that had to block *)
  throttled_allocs : int; (** mallocs slowed by epoch-abort backpressure *)
  abandoned_bytes : int; (** fill buffer dropped unrevoked at [finish] *)
}

val stats : t -> stats
