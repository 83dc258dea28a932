(** Quota'd per-tenant allocator capabilities — the CHERIoT allocation
    economics model (sealed allocator capabilities, independent quotas,
    deliberate over-commit, [heap_free_all]) ported onto the quarantine
    pipeline.

    Each tenant registers its {!Ccr.Runtime.t} with the shared ledger
    and receives a {e sealed} allocator capability ({!cap}); every
    allocation through the capability charges the tenant's quota at
    allocation granularity (the size-class rounded size). The charge is
    credited back only when the memory {e leaves quarantine}: freeing
    moves the charge from live to quarantined, and the refund lands —
    via the shim's release hook, strictly before the region's [Reuse]
    trace event — once revocation completes. Quarantined-but-unrevoked
    memory therefore still counts against its owner: revocation lag is
    an economic cost each tenant feels, and the {!debt} probe feeds the
    [Quota] revocation-scheduling policy ({!Os.Revsched.set_debt}).

    The sum of quotas may exceed the physical heap ({e over-commit}).
    When an allocation would push the machine-wide committed sum past
    [phys_limit], the {!overcommit} policy resolves it: deny the
    allocation, steal from idle (force the biggest quarantine debtor's
    revocation and wait for the refund), or trigger revocation for every
    debtor. A tenant's own quota exhaustion is always a plain deny.

    Conservation invariant, checked by the sanitizer's
    [quota-conservation] rule at every trace point and by {!conserved}
    ledger-side: per tenant, [charged − credited = live + quarantined],
    exactly. *)

type t

type cap
(** A sealed allocator capability: authority to allocate against one
    tenant's quota. Invalidated wholesale by {!revoke_cap} — any later
    use raises [Invalid_argument], the moral equivalent of a failed
    unseal. *)

type overcommit =
  | Deny  (** physical exhaustion refuses the allocation outright *)
  | Steal_from_idle
      (** force the largest quarantine debtor (preferring other tenants)
          through revocation and retry once its refund lands *)
  | Trigger_revocation
      (** flush every debtor's quarantine to its revoker, wait for the
          largest refund, retry *)

val overcommit_name : overcommit -> string
(** ["deny"], ["steal"], ["revoke"]. *)

val overcommit_of_name : string -> overcommit option
val all_overcommits : overcommit list

type fault = Skip_credit
    (** Seeded ledger mutation: drop a refund on the floor — the charge
        entry vanishes without a [Quota_credit], so the region's [Reuse]
        must trip the sanitizer's [quota-conservation] rule. *)

val create : Sim.Machine.t -> phys_limit:int -> overcommit:overcommit -> unit -> t
(** A ledger arbitrating one physical heap of [phys_limit] bytes.
    Raises [Invalid_argument] if [phys_limit <= 0]. *)

val register : t -> tenant:int -> quota:int -> Ccr.Runtime.t -> cap
(** Open tenant [tenant]'s account with an independent [quota] and mint
    its sealed allocator capability. Installs the credit stream on the
    runtime's shim ([Mrs.set_on_release]) — at most one account per
    runtime. [tenant] must be the owning process's pid (0 for a
    single-process runtime): quota trace events carry it, and the
    sanitizer cross-checks them against the shim's per-pid [Reuse]
    stream. Raises [Invalid_argument] on a duplicate tenant or
    [quota <= 0]. *)

val revoke_cap : t -> int -> unit
(** Invalidate every capability minted for the tenant (the account and
    its pending credits survive — a crashed tenant's quarantine still
    drains and refunds). *)

val malloc : cap -> Sim.Machine.ctx -> int -> Cheri.Capability.t option
(** Allocate against the capability's quota. [None] is a deny, traced
    as [Quota_deny]: the tenant's own quota could not cover the rounded
    charge ([arg2 = 0]), or physical memory was exhausted and the
    over-commit policy could not reclaim enough ([arg2 = 1]).
    Successful charges are traced as [Quota_charge]. *)

val free : cap -> Sim.Machine.ctx -> int -> unit
(** [free cap ctx base] hands the allocation at [base] (the base of the
    capability {!malloc} returned) to quarantine; its charge moves live →
    quarantined and stays billed until revocation credits it back. The
    ledger frees the capability it charged. Raises [Invalid_argument] on
    a double free or a base the ledger never charged to this tenant. *)

val free_all : cap -> Sim.Machine.ctx -> int * int
(** The [heap_free_all] analogue: hand the tenant's {e entire} live heap
    to quarantine in one shot and flush it to the revoker — post-failure
    cleanup needing no cooperation from tenant code. Returns
    [(allocations, charge bytes)] handed over; traced as [Free_all].
    Calling it again with nothing live is a no-op returning [(0, 0)]. *)

val over_quota : t -> tenant:int -> bool
(** [true] while the tenant's outstanding balance has reached its quota
    — the serving layer's admission gate ({!Service.Squeue.create}'s
    [quota_gate]). Unknown tenants are not gated. *)

val debt : t -> tenant:int -> int
(** Charge bytes parked in quarantine — the tenant's revocation-lag
    cost, fed to the [Quota] scheduling policy. 0 for unknown tenants. *)

val quota : t -> tenant:int -> int
val tenants : t -> int list
val phys_limit : t -> int
val overcommit : t -> overcommit

val peak_committed : t -> int

val inject_fault : t -> fault option -> unit
(** Arm (or disarm) the seeded ledger mutation. Only conservation-rule
    self-tests should set this. *)

type account_stats = {
  s_tenant : int;
  s_quota : int;
  s_charged : int;
  s_credited : int;
  s_live : int;
  s_quarantined : int;
  s_denied_quota : int; (** allocations denied by the tenant's own quota *)
  s_denied_phys : int; (** allocations denied at physical exhaustion *)
  s_free_alls : int;
  s_reclaims : int; (** times forced through revocation as an over-commit victim *)
  s_peak_balance : int;
  s_conserved : bool; (** the conservation identity, against the entry table *)
}

val account_stats : t -> tenant:int -> account_stats
