(** Tenant economics under a bulk-reclamation storm.

    N tenant processes with heterogeneous quotas ([quota_base * (i+1)])
    serve open-loop Poisson traffic through per-tenant admission queues
    whose quota gate ({!Service.Squeue}) sheds requests from over-budget
    tenants before they queue. Every request churns temporaries and a
    standing session ring through the tenant's sealed allocator
    capability ({!Tenancy.Ledger}), so revocation lag — quota still
    charged for quarantined memory — feeds straight back into admission.
    The physical limit is [phys_frac × Σ quotas], over-committed by
    construction; exhaustion resolves through the configured
    {!Tenancy.Ledger.overcommit} policy.

    At [storm_at] of the horizon the {e largest} tenant crashes: its
    queue drains as lost, {!Tenancy.Ledger.free_all} hands its entire
    live heap to quarantine in one shot, its capability is revoked, and
    the zombie's quarantine drains through its own revoker under the
    chosen {!Os.Revsched.policy}. The per-slice p99.9 curve exposes the
    excursion the surviving tenants see; [identity_ok] checks the
    serving identity (offered = served + shed + lost, per tenant) and
    [conserved] the quota ledger's conservation identity. Deterministic
    for a fixed config and seed. *)

type config = {
  tenants : int;
  quota_base : int;  (** tenant i's quota = quota_base * (i + 1) *)
  phys_frac : float;  (** phys_limit / Σ quotas; < 1.0 over-commits *)
  overcommit : Tenancy.Ledger.overcommit;
  sched : Os.Revsched.policy;
  requests : int;  (** per tenant *)
  rate : float;  (** per-tenant offered rate, req/s *)
  storm_at : float;  (** fraction of the horizon; >= 1.0 disables *)
  governed : bool;
  slices : int;  (** time slices for the p99.9 curve *)
  seed : int;
}

val default_config : config
(** 3 tenants with a 768 KiB quota base, physical memory at 80% of the
    quotas, steal-from-idle over-commit, the quota-pressure revocation
    scheduler, 1200 requests per tenant at 40k req/s, the storm at
    half the horizon, governed, 20 slices. Fixed for every run: a
    64-deep admission queue per tenant, a 1 ms p99 target, a session
    ring of 256-byte blocks worth 75% of the tenant's quota, and per
    request 2 temporaries and 20k cycles of compute. *)

type tenant_outcome = {
  o_pid : int;
  o_quota : int;
  o_offered : int;
  o_served : int;
  o_shed_quota : int;
  o_shed_depth : int;
  o_shed_deadline : int;
  o_lost : int;
  o_denied_quota : int;  (** allocation denies inside admitted requests *)
  o_denied_phys : int;
  o_reclaims : int;
  o_p99_us : float;
  o_goodput : float;  (** served requests per second of wall time *)
  o_balance : int;  (** outstanding charge at the end of the run *)
  o_conserved : bool;
  o_grants : int;
  o_wait_cycles : int;
  o_crashed : bool;
}

type result = {
  mode : string;
  sched : string;
  overcommit : string;
  tenants : int;
  governed : bool;
  wall_cycles : int;
  phys_limit : int;
  quota_total : int;
  storm_tenant : int;  (** pid, or -1 when the storm is disabled *)
  storm_cycles : int;
  storm_freed_allocs : int;
  storm_freed_bytes : int;
  quarantine_peak : int;  (** machine-wide, sampled at completions *)
  committed_peak : int;  (** peak Σ outstanding balances *)
  p999_us : float;
  p999_calm_us : float;
      (** worst slice p99.9 before the storm, excluding the cold-start
          slice 0 *)
  p999_storm_us : float;  (** worst slice p99.9 at/after the storm *)
  slice_p999 : float array;
  identity_ok : bool;
  conserved : bool;
  per_tenant : tenant_outcome list;
}

val run :
  ?tracer:Sim.Trace.t ->
  ?on_os:(Os.t -> unit) ->
  ?config:config ->
  mode:Ccr.Runtime.mode ->
  unit ->
  result
(** [on_os] runs after the OS is built but before any process forks —
    analyses hook {!Os.set_on_process} there. Raises [Invalid_argument]
    on a non-positive tenant count, quota base, or slice count. *)

val pp : Format.formatter -> result -> unit
