(** One-stop setup: machine + allocator + revocation strategy.

    [Baseline] is the spatially-safe CHERI configuration with no temporal
    safety (plain allocator, immediate reuse) — the denominator of every
    overhead figure in the paper. [Safe strategy] wires the allocator
    through the mrs quarantine shim and spawns the chosen revoker. *)

type mode = Baseline | Safe of Revoker.strategy

type allocator_kind = Snmalloc | Jemalloc
(** §10: the paper evaluates with snmalloc but ships with jemalloc;
    footnote 23 attributes large overhead swings to allocator choice. *)

val mode_name : mode -> string
val all_modes : mode list
(** Baseline, Paint+sync, CHERIvoke, Cornucopia, Reloaded. *)

val mode_of_name : string -> mode option
(** Inverse of {!mode_name} over [Baseline] and every strategy
    {!Revoker.strategy_of_name} knows, plus the aliases [paint] and
    [paint-sync] for [paint+sync]. *)

val machine_config :
  ?processes:int -> heap_bytes:int -> seed:int -> unit -> Sim.Machine.config
(** The machine every workload sizes from its heap. Each of [processes]
    (default 1) maps its heap plus a sixteenth, for the shadow bitmap and
    page tables, out of one frame pool; physical memory is that times
    [processes], plus 8 MiB. *)

type t = {
  machine : Sim.Machine.t;
  alloc : Alloc.Backend.t;
  hoards : Kernel.Hoard.t;
  mode : mode;
  mrs : Mrs.t option;
  revoker : Revoker.t option;
}

val create :
  ?config:Sim.Machine.config ->
  ?policy:Policy.t ->
  ?revoker_core:int ->
  ?non_temporal:bool ->
  ?recovery:Revoker.recovery ->
  ?allocator:allocator_kind ->
  mode ->
  t
(** [revoker_core] defaults to 2, the paper's pinning; [allocator]
    defaults to [Snmalloc]; [recovery] tunes the revoker's watchdog /
    retry / degradation knobs (default {!Revoker.default_recovery}). *)

val malloc : t -> Sim.Machine.ctx -> int -> Cheri.Capability.t
val free : t -> Sim.Machine.ctx -> Cheri.Capability.t -> unit

val finish : t -> Sim.Machine.ctx -> unit
(** The application thread signals end of workload (lets the revoker
    thread drain and exit so {!Sim.Machine.run} terminates). *)

val revoker_records : t -> Revoker.phase_record list
val mrs_stats : t -> Mrs.stats option
