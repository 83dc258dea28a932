(** Bounded request queue with admission control, load shedding, and
    crash loss.

    Three drop policies, each traced per-request with [Trace.Req_shed]:

    - {b queue-depth} ([arg2 = 0]): [offer] refuses a request when the
      queue is already at [max_depth] — backpressure at admission;
    - {b deadline} ([arg2 = 1]): [take] discards a request whose queueing
      delay already exceeds its deadline — it would miss its SLO even
      with instantaneous service, so serving it only burns cycles;
    - {b quota} ([arg2 = 3]): when a [quota_gate] is installed, [offer]
      sheds every request whose tenant the gate reports over quota —
      before any queueing check, so an over-budget tenant's traffic
      never consumes admission capacity it cannot back with heap.

    {!drain_lost} models a crash: everything admitted but still queued
    is dropped (traced [Trace.Req_lost]).

    Single-machine cooperative threading: no internal locking needed
    beyond the condvar handshake. *)

type req = {
  id : int;
  intended : int;  (** intended arrival, cycles *)
  deadline : int option;
      (** queueing-delay budget, cycles; [None] is never deadline-shed *)
  tenant : int;
      (** owning tenant pid for the quota gate; 0 for single-tenant rigs *)
}

val why_depth : int
val why_deadline : int
val why_quota : int
(** The [arg2] codes carried by [Req_shed]: 0, 1 and 3. *)

type t

val create : Sim.Machine.t -> max_depth:int -> ?quota_gate:(int -> bool) -> unit -> t
(** No quota shedding unless [quota_gate] is given ([quota_gate tenant]
    returning [true] means the tenant is over quota {e right now} —
    typically [Tenant.Ledger.over_quota]). Raises [Invalid_argument] if
    [max_depth <= 0]. *)

val offer : t -> Sim.Machine.ctx -> req -> bool
(** Enqueue, or shed ([false]) on quota or queue depth — in that order,
    so quota drops never consume queue capacity. Raises
    [Invalid_argument] after {!close} — the generator owns the queue's
    lifetime. *)

val take : t -> Sim.Machine.ctx -> req option
(** Block until a request is available; [None] once the queue is closed
    {e and} drained. Deadline-expired requests are shed internally and
    never returned. *)

val drain_lost : t -> Sim.Machine.ctx -> unit
(** Drop everything currently queued — the owner crashed with these
    admitted but unanswered. Each is counted in {!lost} and traced as
    [Trace.Req_lost] ([arg2 = 0]). *)

val close : t -> Sim.Machine.ctx -> unit
(** Generator is done: wake all waiting servers; [take] drains what is
    left, then returns [None]. *)

val depth : t -> int
val accepted : t -> int
val shed_depth : t -> int
val shed_deadline : t -> int
val shed_quota : t -> int

val lost : t -> int
(** Requests dropped by {!drain_lost}. *)
