(** Page sweeping: the revoker's inner loop (§4.3 of the paper).

    A sweep visits every capability-sized granule of a physical page,
    probes the revocation bitmap for each tagged granule, and clears the
    tags of capabilities whose base is painted. All accesses go through
    the sweeping thread's core cache, so foreground (fault-driven) sweeps
    warm the application's cache while background sweeps dirty only the
    revoker core's (§5.6). *)

type stats = {
  granules : int; (** granules visited *)
  tagged : int; (** capabilities seen *)
  revoked : int; (** tags cleared *)
  upgraded : bool; (** read-only page needed the write upgrade path *)
}

val zero_stats : stats

val sweep_page :
  ?non_temporal:bool ->
  Sim.Machine.ctx ->
  Revmap.t ->
  pte:Vm.Pte.t ->
  stats
(** Content-scan the page's frame. Implements the read-only heuristic:
    if the page is not user-writable, the scan runs read-only and only
    invokes the full fault machinery (charged) when a capability must
    actually be revoked.

    Internally uses a batched kernel: the page's packed tag bitmap is
    read 32 granules per call as an immediate int
    ({!Tagmem.Mem.tag_bits}), each run of untagged granules between two
    tagged ones is charged in one batch, and only tagged granules probe
    the revocation map, on the words memory stores for them
    ({!Tagmem.Mem.cap_word}) rather than on decoded capabilities. Cycle
    counts, bus traffic, cache state and trace events are bit-for-bit
    identical to the per-granule reference loop, which remains in use
    whenever a chaos tag hook is armed (the hook must observe every
    granule read). *)

val scan_regfile : Sim.Machine.ctx -> Revmap.t -> Sim.Regfile.t -> int
(** Probe-and-revoke every tagged register; returns revoked count. *)

val scan_hoard : Sim.Machine.ctx -> Revmap.t -> Kernel.Hoard.t -> int
(** Scan the kernel's hoarded capabilities; returns revoked count. *)
