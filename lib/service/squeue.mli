(** Bounded request queue with admission control, priority-aware load
    shedding, and crash loss.

    Four drop policies, each traced per-request with [Trace.Req_shed]:

    - {b queue-depth} ([arg2 = 0]): [offer] refuses a request when the
      queue is already at [max_depth] — backpressure at admission;
    - {b deadline} ([arg2 = 1]): [take] discards a request whose queueing
      delay already exceeds its deadline — it would miss its SLO even
      with instantaneous service, so serving it only burns cycles;
    - {b brownout} ([arg2 = 2]): while the brownout controller is
      active, [offer] sheds every request whose class code is at least
      [b_min_cls] — graceful degradation drops the least important
      traffic first, keeping admission capacity for critical requests;
    - {b quota} ([arg2 = 3]): when a [quota_gate] is installed, [offer]
      sheds every request whose tenant the gate reports over quota —
      before any queueing check, so an over-budget tenant's traffic
      never consumes admission capacity it cannot back with heap.

    The brownout controller is a hysteresis band over instantaneous
    queue depth, evaluated at every offer/take/drain: it engages when
    depth reaches [b_enter] and disengages only once depth has drained
    to [b_exit] ([b_exit < b_enter]), so it cannot flap around a single
    threshold. Transitions are traced as [Trace.Brownout_shift].

    {!drain_lost} models the crash half of lost-in-flight semantics:
    everything admitted but still queued is dropped (traced
    [Trace.Req_lost]) and returned to the caller.

    Single-machine cooperative threading: no internal locking needed
    beyond the condvar handshake. *)

type req = {
  id : int;
  intended : int;  (** intended arrival, cycles *)
  cls : int;  (** priority class code ({!Service.Loadgen.cls_code}) *)
  deadline : int option;
      (** queueing-delay budget, cycles; [None] is never deadline-shed *)
  tenant : int;
      (** owning tenant pid for the quota gate; 0 for single-tenant rigs *)
}

val why_depth : int
val why_deadline : int
val why_brownout : int
val why_quota : int
(** The [arg2] codes carried by [Req_shed] and {!shed_log}. *)

type brownout = {
  b_enter : int;  (** engage when depth at an offer reaches this *)
  b_exit : int;  (** disengage once depth has drained to this *)
  b_min_cls : int;  (** shed class codes >= this while engaged *)
}

val default_brownout : brownout
(** Enter at depth 48, exit at 12, shed only [Background] (code 2). *)

type t

val create :
  Sim.Machine.t ->
  max_depth:int ->
  ?brownout:brownout ->
  ?quota_gate:(int -> bool) ->
  unit ->
  t
(** No brownout shedding unless [brownout] is given; no quota
    shedding unless [quota_gate] is given ([quota_gate tenant] returning
    [true] means the tenant is over quota {e right now} — typically
    [Tenant.Ledger.over_quota]). Raises [Invalid_argument] if
    [max_depth <= 0], if the brownout band is inverted
    ([b_enter <= b_exit]), or if [b_enter > max_depth] (the controller
    could never engage). *)

val offer : t -> Sim.Machine.ctx -> req -> bool
(** Enqueue, or shed ([false]) on brownout class or queue depth — in
    that order, so degraded-mode drops are cheap rejections that never
    consume queue capacity. Raises [Invalid_argument] after {!close} —
    the generator owns the queue's lifetime. *)

val take : t -> Sim.Machine.ctx -> req option
(** Block until a request is available; [None] once the queue is closed
    {e and} drained. Deadline-expired requests are shed internally and
    never returned. *)

val drain_lost : t -> Sim.Machine.ctx -> req list
(** Drop everything currently queued — the host crashed with these
    admitted but unanswered. Each is counted in {!lost} and traced as
    [Trace.Req_lost] ([arg2 = 0]); the list is returned in queue order
    so the caller can record per-request outcomes. *)

val close : t -> Sim.Machine.ctx -> unit
(** Generator is done: wake all waiting servers; [take] drains what is
    left, then returns [None]. *)

val depth : t -> int
val accepted : t -> int
val shed_depth : t -> int
val shed_deadline : t -> int
val shed_brownout : t -> int
val shed_quota : t -> int

val shed : t -> int
(** [shed_depth + shed_deadline + shed_brownout + shed_quota]. *)

val lost : t -> int
(** Requests dropped by {!drain_lost}. *)

val brownout_active : t -> bool
val brownout_shifts : t -> int

val shed_log : t -> (req * int * int) list
(** Every shed request as [(req, why, at)] in shed order — the
    per-request record behind the aggregate counters. *)
