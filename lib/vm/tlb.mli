(** Per-core translation lookaside buffer.

    Entries cache a reference to the live PTE {e plus snapshots} of the
    fields the hardware latches at fill time: the writable bit and the
    capability-load-generation bit. A PTE updated by the revoker on
    another core is therefore {e not} seen by this core until the entry is
    invalidated (shootdown) or evicted — the staleness that §4.3's
    double-locking fault path exists to resolve. *)

type entry = {
  vpage : int;
  pte : Pte.t;
  mutable clg_snapshot : bool;
  mutable writable_snapshot : bool;
}

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable shootdowns : int;
}

type t = private {
  slots : entry option array;  (** direct-mapped: [vpage land mask] *)
  mask : int;
  st : counters;
}
(** Readable so that the machine can take a hit inline: an entry in slot
    [vpage land mask] with a matching [vpage] is a hit, counted in
    [st.hits] exactly as {!lookup} counts it. Misses go through
    {!lookup} and {!insert}. *)

val create : ?entries:int -> unit -> t
(** [entries] defaults to 256 (direct-mapped by vpage). *)

val lookup : t -> vpage:int -> entry option
(** A hit returns the cached entry (statistics updated). *)

val insert : t -> vpage:int -> Pte.t -> entry
(** Fill after a page-table walk, snapshotting [clg] and [writable]. *)

val refresh : entry -> unit
(** Re-latch the snapshots from the live PTE (what the fault handler's
    cheap path does after finding the PTE already current). *)

val invalidate_page : t -> vpage:int -> unit

val invalidate_pages : t -> vpages:int list -> unit
(** Batch invalidation — one received (acknowledged) shootdown IPI.
    Counts once towards {!shootdowns} per non-empty batch, so a machine
    that re-IPIs a core after a lost ack leaves a visible double-count. *)

val flush : t -> unit

val hits : t -> int
val misses : t -> int

val shootdowns : t -> int
(** Shootdown batches this TLB has received (acks sent). *)
