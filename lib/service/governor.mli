(** SLO-aware revocation governor.

    Decides {e when} a revocation epoch opens and {e how much} of the
    concurrent sweep runs at a time, using three control inputs:

    - queue depth (instantaneous foreground load, via the [depth]
      closure),
    - the serving p99 estimate (via the [p99] closure),
    - quarantine pressure ({!Ccr.Policy.should_block} over live and
      quarantined bytes).

    Actuation points, wired into the revoker by {!install}:

    - {b epoch governor} ({!Ccr.Revoker.set_epoch_governor}): while the
      queue is deeper than [defer_depth], hold the pending epoch back in
      bounded sleep polls — emitting one [Governor_defer] event with the
      total cycles held. Deferral ends when (a) the queue drains below
      the threshold, (b) the [max_defer] cap expires, or (c) quarantine
      pressure reaches the {e blocking} threshold, in which case the
      epoch is {e forced} ([Governor_force], plus [Slo_violation] when
      the p99 estimate is already over target). Because the force
      condition equals the condition under which allocators block,
      deferral can never deadlock against a blocked application.
    - {b sweep pacer} ({!Ccr.Revoker.set_sweep_pacer}): slices the
      concurrent sweep into [quantum_pages]-page quanta, pausing between
      slices while the queue is deeper than [pace_depth] (same bounded
      wait and pressure escape). Each grant emits [Governor_quantum].

    Plus one advisory input the server threads call: {!maybe_eager}
    flushes quarantine early in a load trough, using the eager end of
    {!Ccr.Policy.adaptive}, so epochs migrate into idle periods. *)

type config = {
  defer_depth : int;  (** defer epochs while queue depth exceeds this *)
  defer_quantum : int;  (** cycles per deferral poll sleep *)
  max_defer : int;  (** cap (cycles) on any one defer / pace wait loop *)
  quantum_pages : int;  (** pages per concurrent-sweep slice *)
  pace_depth : int;  (** pause between slices while depth exceeds this *)
  pace_quantum : int;  (** cycles per pacing poll sleep *)
  eager_load : float;
      (** the [load] fed to {!Ccr.Policy.adaptive} by {!maybe_eager}:
          0 flushes at half the plain trigger (many extra epochs), values
          near 0.5 only pull each epoch slightly forward into the trough.
          Default 0.3 ⇒ eager trigger at 80% of the plain threshold. *)
}

val default_config : config

type stats = {
  epochs_deferred : int;  (** epochs that waited at least one poll *)
  epochs_forced : int;  (** deferrals ended by blocking pressure *)
  eager_flushes : int;  (** {!maybe_eager} flushes in load troughs *)
  defer_cycles : int;  (** total cycles epochs were held back *)
  quanta_granted : int;  (** concurrent-sweep slices granted *)
  slo_events : int;  (** [Slo_violation] events emitted *)
}

type t

val install :
  ?config:config ->
  ?target_p99_us:float ->
  ?p99:(unit -> float option) ->
  Ccr.Runtime.t ->
  depth:(unit -> int) ->
  unit ->
  t
(** Wire both hooks into the runtime's revoker. [depth] and [p99] are
    closures (not concrete queue types) so tests can drive the
    governor's decisions directly. Defaults: [target_p99_us] 1000 µs,
    [p99] always unknown. Raises [Invalid_argument] on a [Baseline]
    runtime. *)

val uninstall : t -> unit
(** Clear both hooks from the revoker. *)

val maybe_eager : t -> Sim.Machine.ctx -> unit
(** Trough-side actuation, called by a server thread that found the
    queue empty: if the revoker is fully idle and the eager adaptive
    trigger ([Ccr.Policy.adaptive ~load:eager_load]) fires, flush
    quarantine now so the epoch runs against an empty queue. *)

val stats : t -> stats
