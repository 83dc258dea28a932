(** CHERI-Concentrate-style bounds compression model.

    Real CHERI capabilities store bounds in a compressed floating-point
    format: a mantissa of [mantissa_width] bits and an exponent. Regions
    whose length exceeds what the mantissa can express exactly must have
    base and top aligned to [2^e], so requested bounds are {e padded}
    outwards. Allocators must therefore round allocation sizes up so that
    the returned capability's bounds exactly cover the allocation and
    cannot reach into a neighbour (Woodruff et al., "CHERI Concentrate").

    This module reproduces the alignment/padding arithmetic; it does not
    model the bit-level encoding. *)

val mantissa_width : int
(** Number of mantissa bits (14, as in 128-bit Morello capabilities). *)

val exponent_for_length : int -> int
(** [exponent_for_length len] is the smallest exponent [e] such that a
    region of [len] bytes can be represented with base and top aligned to
    [2^e]. Zero when the length is exactly representable unaligned. *)

val representable : base:int -> length:int -> int * int
(** [representable ~base ~length] is [(base', length')], the smallest
    representable region containing [\[base, base+length)]. [base' <= base]
    and [base' + length' >= base + length]. The result is exact: when
    padding to [2^e] alignment carries the length past exponent [e]'s
    mantissa, the padding is redone at [e + 1]. *)

val is_exact : base:int -> length:int -> bool
(** Whether [\[base, base+length)] is representable without padding. *)

val required_alignment : int -> int
(** [required_alignment len] is the byte alignment an allocator must give
    a block of [len] bytes so its bounds are exact ([2^e]). *)

val round_length : int -> int
(** [round_length len] rounds [len] up to the next length representable
    exactly when suitably aligned. *)

val representable_window : base:int -> length:int -> int * int
(** [(lo, hi)] such that a capability with the given bounds keeps its tag
    while its address stays within [\[lo, hi)]. Out-of-bounds roaming is
    permitted within the representable space around the bounds; going
    beyond strips the tag (monotonicity is preserved because the bounds
    themselves never move). *)
