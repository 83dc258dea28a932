(** The SPEC CPU2006 trace engine (§5.1 of the paper).

    Runs one profile under one temporal-safety mode on a fresh simulated
    machine: a single application thread pinned to core 3, the revoker
    (if any) pinned to core 2, exactly the paper's pinning regime. The
    application maintains an object table in simulated memory and
    executes a deterministic pseudo-random stream of churn / dangling-
    free / allocation / access operations, with pointer chasing and
    object bodies whose capability density matches the profile. *)

val app_body :
  Profile.t ->
  Ccr.Runtime.t ->
  rng:Sim.Prng.t ->
  ops:int ->
  ops_done:int ref ->
  Sim.Machine.ctx ->
  unit
(** The trace engine alone, on the calling thread: build the object
    table, then execute [ops] operations against the given runtime,
    bumping [ops_done] per op. {!run} wraps it in a fresh machine;
    {!Tenant.run} runs one per forked process. *)

type interp =
  | Reference
      (** {!app_body}: draws and executes op by op. The path chaos and
          load-filter runs fall back to. *)
  | Compiled
      (** the {!Opstream} path: draws a block of ops ahead into flat
          arrays, then replays it. Bit-for-bit identical simulated
          behaviour; on the host it runs about level with [Reference]
          (DESIGN.md, "Reference against compiled"). *)

val run :
  ?seed:int ->
  ?ops_scale:float ->
  ?policy:Ccr.Policy.t ->
  ?non_temporal:bool ->
  ?allocator:Ccr.Runtime.allocator_kind ->
  ?tracer:Sim.Trace.t ->
  ?on_runtime:(Ccr.Runtime.t -> unit) ->
  ?interp:interp ->
  mode:Ccr.Runtime.mode ->
  Profile.t ->
  Result.t
(** [ops_scale] multiplies the profile's operation count (default 1.0).
    The same [seed] produces the same operation stream across modes, so
    results are paired. [on_runtime] is called with the freshly-built
    runtime after the tracer is attached but before any thread runs —
    the hook analyses (sanitizer, race detector) use to subscribe.

    [interp] defaults to [Compiled]; runs that arm chaos hooks
    ({!Sim.Machine.chaos_armed}) or a capability-load filter barrier
    ({!Sim.Machine.load_filter_armed}, the CHERIoT strategy)
    automatically fall back to [Reference], whose per-op interpretation
    tolerates the machine states those can manufacture. *)
