(** Address-space layout.

    A fixed, simple layout: a null guard page, the heap region, a guard
    page, and the kernel-provided revocation ("shadow") bitmap region
    covering the heap at one bit per 16-byte granule. The shadow bitmap
    is the last region: an address space's page table ends with it. All
    boundaries are page-aligned. *)

type t = {
  heap_base : int;
  heap_limit : int; (** exclusive *)
  shadow_base : int;
  shadow_limit : int;
}

val make : heap_bytes:int -> t
(** [make ~heap_bytes] computes a layout for a heap of at most
    [heap_bytes] (rounded up to pages). *)

val heap_bytes : t -> int

val shadow_addr_of_heap : t -> int -> int
(** Virtual address of the shadow-bitmap {e byte} describing the granule
    at the given heap virtual address. One bitmap byte covers 8 granules
    (128 heap bytes). *)

val shadow_bit_of_heap : int -> int
(** Bit index (0–7) within that byte. *)

val contains_heap : t -> int -> bool
