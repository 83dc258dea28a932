(** Per-address-space page table ("pmap", after the FreeBSD layer the
    paper's implementation lives in).

    Maps virtual page numbers to {!Pte.t}. The pmap carries the
    address-space-wide capability-load-generation value that newly
    installed PTEs adopt, and a cooperative lock whose acquisitions the
    machine layer charges for (§4.3: a faulting thread locks the pmap
    twice; sweeps lock it around PTE updates). *)

type t

val create : asid:int -> t
val asid : t -> int

val enter : t -> vpage:int -> Pte.t -> unit
val remove : t -> vpage:int -> unit
val lookup : t -> vpage:int -> Pte.t option
val mem : t -> vpage:int -> bool
val page_count : t -> int

val iter : t -> f:(int -> Pte.t -> unit) -> unit

val vpages_in : t -> lo:int -> hi:int -> int list
(** The mapped virtual page numbers in [\[lo, hi\]], ascending — the
    background revoker's visit order. Read off a sorted array that is
    rebuilt only after an {!enter} or a {!remove}. *)

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
    a blocking point, so acquisition always succeeds; contention is
    recorded for statistics only. *)

val unlock : t -> who:int -> unit
val lock_acquisitions : t -> int

(** {1 Busy marker} *)

val busy : t -> unit
(** Mark the address space busy (held across concurrent revocation
    phases; excludes fork-like bulk operations, §4.3). *)

val unbusy : t -> unit
val is_busy : t -> bool
