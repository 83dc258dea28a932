(** Per-core cache hierarchy and bus-traffic model.

    Two levels, write-back write-allocate, 64-byte lines, physically
    indexed: a small L1 and a larger private L2 (Morello's Neoverse-N1-
    derived cores have private L1/L2; the shared system cache is folded
    into the DRAM latency). Every L2 miss or dirty-line writeback is one
    {e bus transaction} — the proxy for DRAM traffic used by the paper's
    figures 4 and 6.

    Cross-core coherence invalidations are not modelled; the paper's
    workloads pin the revoker and the application to distinct cores with
    independent caches, which is exactly the behaviour this model gives
    (see DESIGN.md and §7.5 of the paper).

    Both levels are direct-mapped, and their line-tag and dirty arrays
    sit in {!t} itself, so an L1 hit reads one tag straight out of the
    cache's own array and allocates nothing. *)

type stats = {
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable bus_reads : int; (* line fills from DRAM *)
  mutable bus_writes : int; (* dirty writebacks to DRAM *)
  mutable accesses : int;
}

type t

val line_size : int
(** Bytes per line. *)

val create : ?l1_kib:int -> ?l2_kib:int -> unit -> t
(** Defaults: 4 KiB L1, 64 KiB L2 (direct-mapped) — Morello's 64 KiB /
    1 MiB scaled by 1/16, splitting the difference with the repository's
    1/64 heap scaling so that heap:cache ratios (which drive the DRAM
    traffic figures) stay in a realistic regime. *)

val access : t -> addr:int -> write:bool -> int
(** Simulate one access; returns its latency in cycles (2 for an L1 hit,
    14 for an L2 hit, 120 from DRAM) and updates the statistics. Accesses that straddle a line boundary are charged as the
    first line only (negligible for the granule-aligned traffic the
    simulator generates). *)

val access_nt : t -> addr:int -> write:bool -> int
(** Non-temporal access: bypasses allocation (no line fill), still counts
    bus traffic on miss. Used by the §5.6 "non-temporal sweep" ablation. *)

val access_stream : t -> addr:int -> write:bool -> int
(** Streaming access: same cache behaviour as {!access} but charged at
    half the DRAM latency (60 cycles) on miss, modelling the memory-level
    parallelism of a sequential hardware-prefetched scan — the revoker's
    page sweep loop. Bus traffic is counted identically. *)

val access_stream_lines : t -> addr:int -> write:bool -> n:int -> int
(** [access_stream_lines t ~addr ~write ~n] charges {!access_stream} on
    [n] consecutive lines from [addr]'s on: identical latency total,
    statistics and final cache state to [n] calls 64 bytes apart
    starting at [addr]. A zeroing loop's cost model. *)

val access_stream_run : t -> addr:int -> write:bool -> count:int -> int
(** [access_stream_run t ~addr ~write ~count] charges [count]
    back-to-back granule accesses starting at the granule-aligned [addr],
    across every line they cover: identical latency total, statistics
    and final cache state to [count] individual {!access_stream} calls
    (each line's first access installs it; the rest of that line's are
    L1 hits). The sweep kernel's batched cost model. *)

val access_nt_run : t -> addr:int -> write:bool -> count:int -> int
(** Same batching for {!access_nt}: non-temporal accesses never install
    a line, so each access to a line repeats the outcome of its first —
    including one bus transaction {e per access} on miss, exactly as the
    per-granule loop would be charged. *)

val stats : t -> stats
val flush : t -> unit
(** Write back and drop every line (counts writebacks for dirty lines). *)

val bus_total : stats -> int
