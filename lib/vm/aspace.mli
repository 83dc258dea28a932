(** An address space: layout + pmap + frame allocation.

    The pmap covers every vpage up to the end of the layout's last
    region, the shadow bitmap; mapping a page beyond it raises.
    Translation here is the raw page-table walk; per-core TLB caching and
    its costs live in the machine layer. *)

type t

val create : Phys.t -> Layout.t -> asid:int -> t
(** A space with only the shadow bitmap mapped: eagerly, zeroed,
    writable, and refusing capability stores (a kernel-provided
    object). *)

val pmap : t -> Pmap.t
val layout : t -> Layout.t
val phys : t -> Phys.t

val map_range : t -> vaddr:int -> len:int -> writable:bool -> int
(** Map (and zero) all pages covering [\[vaddr, vaddr+len)] that are not
    already mapped; new PTEs adopt the pmap's current generation. Returns
    the number of pages freshly mapped. *)

val translate : t -> int -> (int * Pte.t) option
(** [translate t va] walks the page table: physical address + PTE, or
    [None] if unmapped. *)

val mapped_pages : t -> int
val asid : t -> int
(** The pmap's address-space id. *)

val fork : t -> asid:int -> t * int list
(** Copy-on-write duplicate: child PTEs share the parent's frames
    (reference-counted) with writable pages downgraded to read-only +
    [cow] on both sides; the child pmap inherits the parent's CLG
    generation and per-page [clg] bits (§4.3). Returns the child and the
    parent vpages that lost write permission — shoot those down. *)

val cow_break : t -> vpage:int -> bool
(** Resolve a CoW fault: privatise the frame (copying it if still
    shared) and restore write permission. Returns [true] iff a physical
    copy was made. *)

val release_all : t -> int
(** Unmap everything, dropping one reference per frame; returns the
    number of pages released. Used by [exec] and process reaping. *)
