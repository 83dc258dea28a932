(** Per-address-space page table ("pmap", after the FreeBSD layer the
    paper's implementation lives in).

    Maps virtual page numbers to {!Pte.t} through one slot per vpage of
    the address space, so a lookup is a range test and one read, and
    enumeration walks the slots in vpage order (§4.3: the background
    sweep visits pages in address order). The pmap carries the
    address-space-wide capability-load-generation value that newly
    installed PTEs adopt, and a cooperative lock whose acquisitions the
    machine layer charges for (§4.3: a faulting thread locks the pmap
    twice; sweeps lock it around PTE updates). *)

type t

val create : asid:int -> pages:int -> t
(** A table of [pages] slots, covering vpages [0 .. pages - 1], all
    unmapped. *)

val asid : t -> int

val enter : t -> vpage:int -> Pte.t -> unit
(** Map [vpage], replacing any previous PTE. Raises [Invalid_argument]
    if [vpage] lies outside the table. *)

val remove : t -> vpage:int -> unit
(** Unmap [vpage]; nothing happens if it is unmapped or outside the
    table. *)

val lookup : t -> vpage:int -> Pte.t option
val mem : t -> vpage:int -> bool
val page_count : t -> int

val iter : t -> f:(int -> Pte.t -> unit) -> unit
(** Every mapping, in ascending vpage order. *)

val vpages_in : t -> lo:int -> hi:int -> int list
(** The mapped virtual page numbers in [\[lo, hi\]], ascending — the
    background revoker's visit order. *)

(** {1 Generation} *)

val generation : t -> bool
(** The generation value PTEs of this address space are converging to. *)

val set_generation : t -> bool -> unit

(** {1 Lock} *)

val lock : t -> who:int -> bool
(** Acquire; returns [true] if the lock was contended (caller charges
    extra cycles). Re-entrant acquisition by the same owner is a
    programming error and raises. With the simulator's cooperative
    scheduling the lock can never be observed held by a parked thread at
    a blocking point, so acquisition always succeeds. *)

val unlock : t -> who:int -> unit
