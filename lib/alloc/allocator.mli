(** The heap allocator (snmalloc-inspired slab allocator).

    Serves bounded capabilities out of the address space's heap region,
    mapping pages on demand and never returning address space to the
    system (as snmalloc on CheriBSD, §6.2 of the paper). Metadata —
    free lists, slot sizes — is held {e out of band}, outside the swept
    address space, matching a CHERI-enlightened allocator whose internal
    state is unreachable from client capabilities; the allocator
    re-derives capabilities from its heap-spanning progenitor rather
    than storing client pointers.

    This allocator reuses freed memory {e immediately}; temporal safety
    comes from wrapping it with {!Ccr.Mrs}, which interposes quarantine
    between [free] and reuse. *)

type t

val create : ?aspace:Vm.Aspace.t -> Sim.Machine.t -> t
(** [aspace] (default: the machine's initial address space) is the space
    whose heap region is served and whose mapped-page count feeds
    {!note_rss}. *)

val clone : t -> aspace:Vm.Aspace.t -> t
(** Fork support: duplicate the allocator's metadata (free lists, live
    and dirty sets, bump pointer) for a copy-on-write child whose heap
    contents are identical. Lifetime statistics start from zero. *)

val heap_cap : t -> Cheri.Capability.t
(** The allocator's progenitor capability spanning the whole heap. *)

val malloc : t -> Sim.Machine.ctx -> int -> Cheri.Capability.t
(** Allocate; the returned capability is tagged, has exact bounds over
    the (size-class-rounded) block and {!Cheri.Perms.read_write}. Raises
    [Out_of_memory] when the heap region is exhausted. *)

val free : t -> Sim.Machine.ctx -> Cheri.Capability.t -> unit
(** Return a block for immediate reuse. The capability must be one
    returned by [malloc] of this allocator (checked: base must be a live
    allocation). Raises [Invalid_argument] otherwise (double free or
    wild free). *)

val release_range : t -> Sim.Machine.ctx -> addr:int -> size:int -> unit
(** Dequarantine path used by the mrs shim: return the block at [addr]
    (previously [withdraw]n) to the free lists. *)

val withdraw : t -> Sim.Machine.ctx -> Cheri.Capability.t -> int
(** Remove the allocation from the live set {e without} making it
    reusable (it is entering quarantine); returns its rounded size. *)

val usable_size : t -> addr:int -> int option
(** Rounded size of the live allocation starting at [addr]. *)

(** {1 Statistics} *)

val live_bytes : t -> int
val total_allocated_bytes : t -> int
val total_freed_bytes : t -> int
val allocation_count : t -> int
val peak_rss_pages : t -> int

val scrub_bytes : t -> int
val note_rss : t -> unit
(** Fold the current mapped-page count into the peak (mrs calls this when
    quarantine grows). *)
