(** The open-loop serving rig: one simulated machine serving an arrival
    trace through admission control, with the SLO governor, crash
    windows and the protocol checkers.

    {!Serve} and every fleet host are configurations of {!run}; the gRPC
    surrogate shares its request body ({!request}) and session table
    ({!build_sessions}, {!await_sessions}).

    A non-user generator thread on core 0 releases each arrival at its
    intended time — being non-user it is never parked by a revocation
    stop-the-world, so it models external clients whose traffic does not
    pause when the server does. Server threads (cores 2, 3, then 1) pull
    from a bounded {!Service.Squeue}, run the request body against a
    long-lived session table, and record latency from {e intended
    arrival} into {!Service.Slo}. The revoker shares core 3 with a
    server, so sweeps steal foreground cycles — the contention the
    governor exists to manage. An idle server is the trough signal: it
    gives the governor a chance to flush quarantine into the lull.

    {b Arrival clocks.} [After_setup] times are offsets from the moment
    the session table is ready (the single-machine workload); [Absolute]
    times are cycles on a clock shared by a whole fleet, so a request
    redistributed to this machine after a failover still charges its
    queueing delay from its original timestamp.

    {b Crash windows} model this machine's crashes and restarts with
    real loss semantics. At each window start an
    {!Chaos.Inflight_loss} fault drains everything still queued (each
    request traced [Req_lost]/0 and recorded {!Lost}); a request whose
    service straddled the crash has its {e response} destroyed
    ([Req_lost]/1 — the work is wasted and the server rides out the
    outage); and on sweeping modes the revoker additionally takes an
    induced sweep crash, so recovery runs through the resumable-epoch
    protocol. A fleet never dispatches arrivals {e into} a window, so
    every loss here was admitted before its crash.

    {b Accounting.} Every arrival ends in exactly one {!fate}, and
    [served + shed + lost = offered = arrivals] holds exactly; {!run}
    folds that identity into [clean]. *)

type clock =
  | After_setup
      (** arrival times are offsets from the moment the session table is
          ready *)
  | Absolute  (** arrival times are absolute cycles on a shared fleet clock *)

type config = {
  name : string;  (** thread-name prefix and [Result.workload] *)
  mode : Ccr.Runtime.mode;
  governed : bool;
      (** install a {!Service.Governor} (ignored under [Baseline]); while
          the brownout band is engaged it defers revocation harder *)
  policy : Ccr.Policy.t option;
  heap_mb : int;
  servers : int;
  queue_depth : int;  (** admission-control bound *)
  deadline_us : float option;
      (** base queueing-deadline budget, stretched per class
          ({!Service.Loadgen.deadline_factor}): critical 1x, normal 4x,
          background exempt *)
  brownout : Service.Squeue.brownout option;
  target_p99_us : float;  (** SLO target fed to accounting + governor *)
  session_slots : int;
  compute_per_req : int;
  seed : int;
  clock : clock;
  windows : (int * int) list;  (** crash windows, [(down, up)] cycles *)
  check : bool;  (** attach the protocol sanitizer + race detector *)
}

val validate :
  servers:int ->
  queue_depth:int ->
  deadline_us:float option ->
  target_p99_us:float ->
  ?brownout:Service.Squeue.brownout ->
  unit ->
  (unit, string) result
(** The serving parameters a command line sets: at least one server, a
    queue depth of at least 1, a positive deadline and p99 target, and a
    brownout band with [0 <= b_exit < b_enter <= queue_depth]. [Error]
    carries a one-line message. *)

type fate =
  | Served of { completed : int; latency_us : float }
      (** answered; [latency_us] measured from the intended arrival *)
  | Shed of { why : int; at : int }
      (** rejected ({!Service.Squeue.why_depth} / [why_deadline] /
          [why_brownout]) at cycle [at] — the client hears the refusal
          immediately *)
  | Lost of { at : int }
      (** destroyed by the crash at cycle [at] (queued or in service) —
          the client hears {e nothing} and only times out *)

type fates
(** Every arrival's terminal outcome, by arrival position. *)

val fate : fates -> int -> fate option
(** The fate of the arrival at a position; [None] only when the
    accounting identity broke. *)

type outcome = {
  result : Result.t;
      (** [latencies_us]: every served request, in completion order *)
  arrivals : int;
  served : int;
  shed_depth : int;
  shed_deadline : int;
  shed_brownout : int;
  lost : int;  (** queue-drained at a crash + in-service response loss *)
  brownout_shifts : int;  (** brownout band transitions (both edges) *)
  slo : Service.Slo.t;  (** histogram + violation counts *)
  fates : fates;
  epochs : int;  (** revocation epochs closed *)
  stw_pause_us : float;  (** total world-stopped time *)
  max_pause_us : float;  (** worst single pause *)
  epoch_resumes : int;  (** checkpointed-epoch resumptions after crashes *)
  sweep_crash_retries : int;
  chaos_injected : int;  (** crash-window faults that actually fired *)
  governor : Service.Governor.stats option;  (** [None] when ungoverned *)
  clean : bool;  (** checkers clean and the accounting identity exact *)
  report : string;  (** buffered findings (worker domains don't print) *)
}

val run :
  ?tracer:Sim.Trace.t ->
  ?on_runtime:(Ccr.Runtime.t -> unit) ->
  config ->
  arrivals:int array ->
  classes:(int -> int) ->
  outcome
(** Serve [arrivals] (intended times in [config.clock]'s frame,
    nondecreasing); [classes i] is the priority class code of arrival
    [i]. [on_runtime] runs with the freshly built runtime (tracer already
    attached) before any thread spawns. Raises [Invalid_argument] when
    {!validate} rejects the config.
    Deterministic, and it shares no mutable state, so runs can fan out
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
