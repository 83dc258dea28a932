(** Capability permission bits.

    A permission set controls which operations a capability authorizes.
    Permission sets are monotone: derivation may only clear bits, never set
    them. This mirrors the architectural permission field of CHERI
    capabilities (Morello / CHERI-RISC-V), restricted to the bits the
    revocation machinery cares about. *)

type t = private int
(** An immutable set of permission bits, one bit per permission below.
    Coercing to [int] ([(p :> int)]) lets hot checks test bits inline;
    every value is still built by this module. *)

val empty : t
(** No permissions at all. *)

val all : t
(** Every permission; the root capability carries this. *)

(** {1 Individual permissions} *)

val load : t
(** Authorizes data loads through the capability. *)

val store : t
(** Authorizes data stores through the capability. *)

val load_cap : t
(** Authorizes loading {e tagged capabilities} through the capability. *)

val store_cap : t
(** Authorizes storing tagged capabilities through the capability. *)

val execute : t
(** Authorizes instruction fetch (unused by the revoker, present for
    model completeness). *)

val global : t
(** Marks a capability as storable anywhere ("global", as opposed to
    stack-local). *)

val seal : t
(** Authorizes sealing other capabilities. *)

val read_write : t
(** [load + store + load_cap + store_cap + global]: what a heap allocator
    hands out. *)

(** {1 Set operations} *)

val union : t -> t -> t
val inter : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] is [true] iff every permission in [a] is also in [b]. *)

val remove : t -> t -> t
(** [remove p victim] clears the bits of [victim] from [p]. *)

val mem : t -> t -> bool
(** [mem p bit] tests whether all bits of [bit] are present in [p]. *)

val equal : t -> t -> bool
val to_int : t -> int
val of_int : int -> t
val pp : Format.formatter -> t -> unit
