(** Per-core translation lookaside buffer.

    Entries cache a reference to the live PTE {e plus a snapshot} of the
    one field the hardware latches at fill time: the
    capability-load-generation bit. A PTE whose generation the revoker
    updates on another core is therefore {e not} seen by this core until
    the entry is invalidated (shootdown), evicted or refreshed — the
    staleness that §4.3's double-locking fault path exists to resolve.
    Every other field, the writable bit that a copy-on-write break
    upgrades in place included, is read live through [pte]. *)

type entry = { vpage : int; pte : Pte.t; mutable clg_snapshot : bool }

type t

val create : ?entries:int -> unit -> t
(** [entries] defaults to 256 (direct-mapped by vpage). *)

val lookup : t -> vpage:int -> entry option
(** The cached entry for [vpage], if any. Allocates nothing. *)

val insert : t -> vpage:int -> Pte.t -> entry
(** Fill after a page-table walk, snapshotting [clg]. *)

val refresh : entry -> unit
(** Re-latch the snapshot from the live PTE (what the fault handler's
    cheap path does after finding the PTE already current). *)

val invalidate_page : t -> vpage:int -> unit

val invalidate_pages : t -> vpages:int list -> unit
(** Batch invalidation — one received (acknowledged) shootdown IPI. *)

val flush : t -> unit
