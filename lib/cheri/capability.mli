(** Architectural capabilities.

    A capability is a bounded, permission-carrying reference to a region of
    the address space, together with a validity {e tag}. All derivation
    operations are {e monotone}: the result never has wider bounds or more
    permissions than the source, and operations that would violate this
    return an {e untagged} (useless) capability rather than raising, just
    as the hardware does.

    Bounds are subject to the compression model of {!Compress}: requesting
    bounds that are not exactly representable yields a capability whose
    bounds are padded outwards (but never beyond the source bounds — in
    that case the result is untagged). *)

type t = private {
  tag : bool;
  base : int;
  length : int;
  addr : int;
  perms : Perms.t;
  otype : int;  (** [0] = unsealed *)
  win_lo : int;
  win_hi : int;
      (** cached representable window of [(base, length)], derived from
          the bounds *)
}
(** The fields are readable so that the machine's per-access checks can
    run without a call per field; values are built only by the
    operations below, which keep the monotonicity guarantees. *)

(** {1 Construction} *)

val null : t
(** The canonical untagged capability: no authority whatsoever. *)

val root : length:int -> t
(** [root ~length] is the primordial tagged capability over
    [\[0, length)] with all permissions. The kernel owns it; everything
    else derives from it. *)

(** {1 Accessors} *)

val tag : t -> bool
val base : t -> int
val length : t -> int

val top : t -> int
(** [base + length]. *)

val addr : t -> int
(** The current address (cursor). May lie outside bounds (within the
    representable window) while the capability remains tagged. *)

val perms : t -> Perms.t
val is_sealed : t -> bool

val in_bounds : ?width:int -> t -> bool
(** Whether [\[addr, addr+width)] lies within [\[base, top)].
    [width] defaults to 1. *)

(** {1 Monotone derivation} *)

val set_bounds : t -> base:int -> length:int -> t
(** Narrow bounds to the representable region containing
    [\[base, base+length)] and move the address to [base]. Untagged if the
    padded region escapes the source bounds, if the source is untagged or
    sealed, or if the requested region is empty/negative. *)

val set_bounds_exact : t -> base:int -> length:int -> t
(** Like {!set_bounds} but untagged if padding would be required. *)

val set_addr : t -> int -> t
(** Move the cursor. Keeps the tag while the new address stays inside the
    representable window and the source is unsealed; strips it
    otherwise. Bounds never change. *)

val incr_addr : t -> int -> t
(** [incr_addr c delta] is [set_addr c (addr c + delta)]. *)

val restrict_perms : t -> Perms.t -> t
(** Intersect the permission set with the argument. Untagged if the
    source is sealed. *)

val clear_perm : t -> Perms.t -> t
(** Remove the given permission bits. Untagged if the source is
    sealed. *)

val clear_tag : t -> t

val seal : t -> otype:int -> t
(** Seal with a non-zero object type: the capability becomes immutable and
    non-dereferenceable until unsealed — every derivation above untags a
    sealed source. Untagged result if already sealed or [otype <= 0]. *)

val unseal : t -> otype:int -> t
(** Unseal; untagged result on type mismatch or if not sealed. *)

val otype : t -> int
(** The object type; [0] when unsealed. *)

(** {1 Dereference checks} *)

val can_load : ?width:int -> t -> bool
val can_store : ?width:int -> t -> bool
val can_load_cap : t -> bool
val can_store_cap : t -> bool

(** {1 Relations} *)

val is_subset : t -> t -> bool
(** [is_subset c parent]: bounds within bounds and perms within perms.
    The implicit provenance relation of §2.2 of the paper. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Flat encoding}

    How tagged memory holds a capability: two immediate 64-bit words,
    [base lor (perms lsl 40)] and [length lor (otype lsl 40)], little-endian
    in 16 bytes. The tag lives in the memory's tag bitmap and the address
    in the granule's data bytes, so neither is encoded. Only
    [Tagmem.Mem] calls these, and only for a granule whose tag is set. *)

val encode : t -> Bytes.t -> int -> unit
(** [encode c b off] writes [c]'s two words to [b] at [off]. Raises
    [Invalid_argument], writing nothing, if the base or the length is
    not below [2{^40}] or the object type not below [2{^22}]. *)

val decode : Bytes.t -> int -> addr:int -> t
(** [decode b off ~addr] is the tagged capability whose words [encode]
    wrote at [off], with address [addr]. Its representable window is
    rebuilt from the base and the length, so for a tagged [c],
    [decode] after [encode c] equals [c] on every field. *)

val encoded_base : Bytes.t -> int -> int
(** The base in the words at [off], without building the capability. *)
