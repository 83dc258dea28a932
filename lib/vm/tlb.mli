(** Per-core translation lookaside buffer.

    Direct-mapped by vpage. A slot caches a reference to the live PTE
    {e plus a snapshot} of the one field the hardware latches at fill
    time: the capability-load-generation bit. A PTE whose generation the
    revoker updates on another core is therefore {e not} seen by this
    core until the slot is invalidated (shootdown), evicted or refreshed
    — the staleness that §4.3's double-locking fault path exists to
    resolve. Every other field, the writable bit that a copy-on-write
    break upgrades in place included, is read live through {!pte}.

    The state is flat: a slot is an int index into parallel arrays of
    vpage tags, PTE references, latched bits and fill stamps, so a hit
    reads one tag and one PTE reference and allocates nothing. Each fill
    gets a fresh stamp, which lets a fault handler that may run other
    threads before it returns re-latch the fill it faulted through and
    nothing that replaced it ({!refresh}). *)

type t

val create : ?entries:int -> unit -> t
(** [entries] defaults to 256 (a power of two). *)

val lookup : t -> vpage:int -> int
(** The slot caching [vpage], or [-1]. Allocates nothing. *)

val insert : t -> vpage:int -> Pte.t -> int
(** Fill [vpage]'s slot after a page-table walk, latching [clg] and
    taking a fresh stamp; returns the slot. *)

val pte : t -> int -> Pte.t
(** The live PTE of the slot's fill. *)

val clg : t -> int -> bool
(** The slot's latched capability-load-generation bit. *)

val stamp : t -> int -> int
(** The slot's fill stamp: distinct for every fill of a TLB. *)

val refresh : t -> int -> stamp:int -> unit
(** [refresh t s ~stamp] re-latches slot [s]'s bit from its live PTE
    (what the fault handler's cheap path does after finding the PTE
    already current), if the slot still holds the fill [stamp] names;
    otherwise it does nothing. *)

val invalidate_page : t -> vpage:int -> unit

val invalidate_pages : t -> vpages:int list -> unit
(** Batch invalidation — one received (acknowledged) shootdown IPI. *)

val flush : t -> unit
(** Invalidate every slot. *)
