(** The open-loop serving workload: [lib/service] wired to a runtime.

    A non-user load-generator thread on core 0 releases requests at the
    intended arrival times drawn by {!Service.Loadgen}, as offsets from
    the moment the session table is ready — being non-user it is never
    parked by a revocation stop-the-world, so it models external clients
    whose traffic does not pause when the server does. Server threads
    (cores 2, 3, then 1) pull from a bounded {!Service.Squeue}
    (admission + deadline shedding), do gRPC-style per-request
    allocation work ({!request}) against a long-lived session table, and
    record latency from {e intended arrival} into {!Service.Slo}. The
    revoker shares core 3 with a server, so sweeps steal foreground
    cycles — the contention the SLO governor exists to manage. An idle
    server is the trough signal: it gives the governor a chance to flush
    quarantine into the lull.

    Accounting invariant, checked by [test_service] and the [--check]
    mode of [ccr_serve]: [served + shed_depth + shed_deadline = offered]
    with [offered = requests], exactly. *)

type config = {
  pattern : Service.Loadgen.pattern;
  requests : int;
  servers : int;  (** worker threads; 2 matches the gRPC surrogate *)
  queue_depth : int;  (** admission-control bound *)
  deadline_us : float option;  (** queue-delay drop threshold, if any *)
  target_p99_us : float;  (** SLO target fed to accounting + governor *)
  session_slots : int;
  seed : int;
}

val default_config : config
(** Poisson 20k req/s, 6000 requests, 2 servers, depth 64, no deadline,
    1 ms p99 target, 20k sessions. Fixed for every run: a 24 MiB heap, 3
    temporaries and 30k cycles of compute per request. *)

val validate : config -> (unit, string) result
(** The serving parameters a command line sets: at least one server, a
    queue depth of at least 1, a positive deadline and p99 target.
    [Error] carries a one-line message. *)

type outcome = {
  result : Result.t;  (** [latencies_us] = per-served-request, from intended arrival *)
  offered : int;
  served : int;
  shed_depth : int;
  shed_deadline : int;
  slo : Service.Slo.t;  (** histogram + violation counts *)
  governor : Service.Governor.stats option;  (** [None] when ungoverned *)
}

val run :
  ?config:config ->
  ?tracer:Sim.Trace.t ->
  ?on_runtime:(Ccr.Runtime.t -> unit) ->
  ?governed:bool ->
  mode:Ccr.Runtime.mode ->
  unit ->
  outcome
(** [governed] (default [false]) installs a {!Service.Governor} over the
    runtime's revoker — ignored under [Baseline], which has none.
    [on_runtime] runs with the freshly built runtime (tracer already
    attached) before any thread spawns; the sanitizer and race detector
    attach through it. Raises [Invalid_argument] when {!validate}
    rejects the config. Fully deterministic: equal arguments give equal
    outcomes, and runs share no mutable state, so they can fan out
    across domains. *)

(** {2 Shared with the gRPC surrogate} *)

val request :
  Ccr.Runtime.t ->
  Sim.Machine.ctx ->
  Sim.Prng.t ->
  Sim.Regfile.t ->
  Objtable.t ->
  touches:int ->
  compute:int ->
  unit
(** One request: allocate 3 linked temporaries, touch [touches] session
    entries (replacing one in a hundred), charge [compute] cycles, free
    the temporaries. *)

type sessions

val sessions : unit -> sessions
(** A session table no server has built yet. *)

val build_sessions :
  sessions -> Ccr.Runtime.t -> Sim.Machine.ctx -> slots:int -> Objtable.t
(** Fill [slots] 256-byte sessions and wake every {!await_sessions}. *)

val await_sessions : sessions -> Sim.Machine.ctx -> Objtable.t
(** Block until the table is built. *)
