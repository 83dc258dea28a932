(** Deterministic fault injection for the revocation stack.

    A {!schedule} is planned from a seed: for each fault kind applicable
    to the strategy under test, one fault with a seed-chosen arming cycle
    and magnitude. {!install} wires the schedule into the generic chaos
    hooks the lower layers expose — the machine's syscall-drain,
    shootdown-ack and tag-read hooks, the revoker's per-page sweep hook,
    the shim's release-stall hook, and a caller-supplied kill closure —
    so no layer below this one knows any chaos type.

    Every injection is announced with a [Chaos_inject] trace event
    (arg: fault id, arg2: kind code) and counted, so a campaign can
    assert both that faults actually fired and that the run recovered. *)

type kind =
  | Sweep_crash  (** the sweep raises {!Ccr.Revoker.Induced_crash} mid-page *)
  | Stuck_quiesce
      (** syscalls declare drains longer than any watchdog deadline *)
  | Shootdown_ack_loss  (** a shootdown IPI ack is dropped (machine retries) *)
  | Tag_corruption
      (** transient tag upset on a kernel read (machine detects, re-reads) *)
  | Quarantine_stall  (** batch releases stall on the revoker thread *)
  | Tenant_kill  (** a victim process is killed at an arbitrary phase *)
  | Inflight_loss
      (** admitted-but-incomplete requests are destroyed at a host crash
          (queue drained via the harness's drop closure) *)

val kind_name : kind -> string
val kind_code : kind -> int
val all_kinds : kind list
val kind_of_name : string -> kind option

val applicable : Ccr.Revoker.strategy -> kind -> bool
(** Whether the kind can manifest at all under the strategy (Paint_sync
    never sweeps; only Cornucopia sends per-page shootdowns by default). *)

type fault = {
  f_id : int;
  f_kind : kind;
  f_at : int;  (** core-clock cycle at which the fault arms *)
  f_param : int;  (** magnitude: stall / drain-inflation cycles *)
  f_count : int;  (** injections before the fault disarms *)
}

type schedule = { sched_id : int; horizon : int; faults : fault list }

val schedule_id : schedule -> int
(** Deterministic digest of the schedule, carried into result JSON. *)

val plan :
  seed:int ->
  strategy:Ccr.Revoker.strategy ->
  horizon:int ->
  ?kinds:kind list ->
  unit ->
  schedule
(** Deterministic in all arguments. Arming points land in the first half
    of [horizon]; magnitudes stay inside {!Ccr.Revoker.default_recovery}'s
    retry budgets so each injection is recoverable by construction. *)

type t

val install :
  Sim.Machine.t ->
  revoker:Ccr.Revoker.t option ->
  mrs:Ccr.Mrs.t option ->
  ?kill:(Sim.Machine.ctx -> int) ->
  ?drop_inflight:(Sim.Machine.ctx -> int) ->
  schedule ->
  t
(** Arm the schedule. [kill] (for [Tenant_kill]) and [drop_inflight]
    (for [Inflight_loss]) are each invoked once from a controller thread
    at their fault's arming cycle and should return the number of
    threads killed / requests destroyed (0 marks the fault
    spent-unfired). Call before {!Sim.Machine.run}. *)

val install_branch :
  Sim.Machine.t ->
  ?revoker:Ccr.Revoker.t ->
  ?budget:int ->
  ?stuck_drain:int ->
  kinds:kind list ->
  decide:(kind -> bool) ->
  unit ->
  t
(** Model-checking variant of {!install}: instead of seed-chosen arming
    cycles, every potential injection site consults [decide] — the
    sweep's per-page visits for [Sweep_crash], syscall entries for
    [Stuck_quiesce] — so inject-vs-don't is a branch point the model
    checker enumerates, making the crash/resume protocol paths
    ([Stw_abandon], [Epoch_abort], [Epoch_resume]) reachable by search
    rather than by luck. [budget] (default 1) bounds the number of
    [true] answers acted on per kind, keeping the branching finite;
    [decide] is not consulted once the budget is spent. [stuck_drain]
    (default 10^9) is the drain inflation for [Stuck_quiesce]. Only
    [Sweep_crash] and [Stuck_quiesce] are branchable — the other kinds
    perturb cost, not protocol control flow; passing them raises
    [Invalid_argument]. Injections emit [Chaos_inject] and count in
    {!outcomes} exactly like scheduled faults. *)

type outcome = {
  o_kind : kind;
  o_id : int;
  o_injected : int;  (** times this fault actually fired *)
  o_spent : bool;  (** its injection budget was exhausted *)
}

val outcomes : t -> outcome list
val injected : t -> int

val unfired : t -> kind list
(** Kinds whose fault never fired — a campaign treats these as failures
    (the schedule was not actually exercised). *)
