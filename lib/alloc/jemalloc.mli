(** A jemalloc-flavoured allocator.

    The public CheriBSD 23.11 release ships Reloaded with a lightly
    modified jemalloc rather than snmalloc (paper §10); this module
    provides that second allocator so allocator sensitivity can be
    studied (the paper's footnote 23 attributes large overhead swings to
    allocator choice alone).

    Design differences from {!Allocator} (the snmalloc-style one):
    - small classes are served from {e runs}: page-aligned spans carved
      into equal regions with an in-run occupancy bitmap (jemalloc's
      run/bin structure) rather than global free lists;
    - each bin allocates from the lowest-address non-full run
      (address-ordered first fit), improving locality of recycled memory;
    - fully-empty runs are retired to a shared run cache and reused by
      any bin.

    The temporal-safety surface (withdraw / release_range) matches
    {!Allocator}, so it can sit under a quarantine shim interchangeably. *)

type t

val create : ?aspace:Vm.Aspace.t -> Sim.Machine.t -> t
val malloc : t -> Sim.Machine.ctx -> int -> Cheri.Capability.t
val free : t -> Sim.Machine.ctx -> Cheri.Capability.t -> unit

val withdraw : t -> Sim.Machine.ctx -> Cheri.Capability.t -> int
(** Remove from the live set without making the region reusable (it is
    entering quarantine); returns the rounded size. *)

val release_range : t -> Sim.Machine.ctx -> addr:int -> size:int -> unit
(** Return a withdrawn region to its run (or the large map). *)

val live_bytes : t -> int
val allocation_count : t -> int
val peak_rss_pages : t -> int

val run_count : t -> int
(** Number of live small-object runs (for fragmentation studies). *)

val note_rss : t -> unit
val scrub_bytes : t -> int

val check_invariants : t -> unit
(** Walk every run and assert occupancy bitmaps agree with the live set;
    raises [Failure] on corruption. Test hook. *)
