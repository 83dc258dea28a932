(** Tagged physical memory.

    Memory is a byte-addressed range with one validity tag per 16-byte,
    naturally-aligned {e granule} — the same density as CHERI tag storage
    (Joannou et al., "Efficient Tagged Memory"). A tagged granule holds
    its capability as flat words, as the hardware's 128-bit capability
    word does: the data bytes hold the address, so that integer reads of
    pointer values behave as on real hardware, and a per-page capability
    chunk holds 16 bytes per granule, the bounds, permissions and object
    type packed by {!Cheri.Capability.encode}. Storing a capability
    therefore allocates nothing on the host, and reading a tagged one
    back builds a fresh value ({!Cheri.Capability.decode}).

    Storage is demand-paged on the host, in 4 KiB pages: a page's data
    bytes and its capability chunk are allocated on the first write
    (resp. the first tagged capability store) to it. An untouched page
    reads as zero bytes and has no tags, and zeroing a whole page
    ({!fill} with 0) releases its storage again, so host memory tracks
    the pages a simulation actually uses rather than [size]. The tag
    bitmap stays dense for the word-scan kernels. None of this is
    visible through the interface: every read returns what a flat,
    zero-initialised array would.

    Tag coherence is enforced here: any data write that touches a granule
    clears its tag, so capabilities cannot be forged or corrupted-but-kept. *)

type t

val granule : int
(** Bytes per tag granule (16). *)

val create : size:int -> t
(** [create ~size] is zeroed memory of [size] bytes (rounded up to a
    granule multiple). *)

val size : t -> int

(** {1 Data access} (physical addresses) *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
(** 8-byte little-endian accesses; need not be aligned. Writes clear the
    tags of all touched granules. *)

val read_u64_bit : t -> int -> int -> bool
(** [read_u64_bit m a bit] is
    [Int64.logand (read_u64 m a) (Int64.shift_left 1L bit) <> 0L] for
    [0 <= bit < 64], without boxing the word. *)

val update_bits : t -> int -> lo:int -> hi:int -> set:bool -> int
(** [update_bits m a ~lo ~hi ~set] sets (or, with [~set:false], clears)
    bits [lo, hi) of the little-endian u64 at [a], for
    [0 <= lo < hi <= 64], and returns the number of bits that changed.
    Same memory effect as the matching [read_u64]/[write_u64] pair,
    tag clearing included, without boxing the word. *)

(** {1 Capability access} *)

val read_cap : t -> int -> Cheri.Capability.t
(** [read_cap m a] reads the 16-byte granule at [a] (must be granule-
    aligned). If the granule is tagged, the stored capability is returned,
    decoded into a fresh value; otherwise an untagged capability whose
    address is the granule's first 8 data bytes. Raises
    [Invalid_argument] on misalignment. *)

val write_cap : t -> int -> Cheri.Capability.t -> unit
(** Store a capability: sets the granule's tag iff the capability is
    tagged, records its value, and writes its address into the data
    bytes. A tagged capability must be encodable
    ({!Cheri.Capability.encode}); [Invalid_argument] otherwise, with
    memory unchanged. *)

val cap_base : t -> int -> int
(** [cap_base m a] is the base of the capability in the tagged granule
    at [a], without building it. *)

val cap_word : t -> int -> int -> int
(** [cap_word m a i], for [i] = 0 or 1, is word [i] of the capability
    stored in the tagged granule at [a] ({!Cheri.Capability.encode}'s
    layout), as an immediate int. Two tagged granules hold equal
    capabilities iff both words and {!cap_addr} agree: the sweep kernel's
    compare-and-clear compares these instead of decoded values.
    [cap_base] and [cap_word] read what the last tagged store left, so
    on an untagged granule their result means nothing, or they raise
    [Invalid_argument], on a page no tagged store has reached. [cap_word]
    also raises [Invalid_argument] on an address that is not
    granule-aligned or not in memory. *)

val cap_addr : t -> int -> int
(** [cap_addr m a] is the granule's first 8 data bytes as an immediate
    int: for a tagged granule, its capability's address. Raises
    [Invalid_argument] on an address that is not granule-aligned or not
    in memory. *)

val read_tag : t -> int -> bool
(** Tag of the granule containing the given address. *)

val clear_tag : t -> int -> unit
(** Clear the tag of the granule containing the given address, leaving
    data bytes intact — the revoker's primitive. *)

val iter_granules : t -> lo:int -> hi:int -> (int -> bool -> unit) -> unit
(** [iter_granules m ~lo ~hi f] calls [f addr tagged] for every granule
    start address in [\[lo, hi)]. The range is validated once; the inner
    loop is bounds-check-free. *)

(** {1 Word-scan kernels}

    Tags are stored packed, 64 granules per [int64] word; these kernels
    scan at word granularity and skip all-zero words, which is how both
    Joannou et al.'s tag controller and the revoker's sweep want to touch
    tag metadata. They are host-side accessors: no simulated cycles are
    charged — the caller (e.g. [Sweep.sweep_page]) owes the cost model
    whatever the equivalent per-granule traffic would have been. *)

val popcount64 : int64 -> int
(** Branch-free SWAR population count. *)

val iter_tagged_words : t -> lo:int -> hi:int -> (int -> int64 -> unit) -> unit
(** [iter_tagged_words m ~lo ~hi f] calls [f base word] for every
    64-granule tag word with at least one tag set among the whole
    granules of [\[lo, hi)]. [base] is the physical address of the
    word's first granule (64-granule aligned); bit [i] of [word] is the
    tag of granule [base + i*granule], with bits outside the requested
    range cleared. All-zero words are skipped without calling [f]. *)

val find_tagged : t -> lo:int -> hi:int -> int option
(** Address of the first tagged granule wholly inside [\[lo, hi)], or
    [None]. Word-at-a-time scan. *)

val tag_bits : t -> int -> int
(** [tag_bits m a] is the 32 tags of the granules starting at [a] as an
    immediate int: bit [i] is the tag of granule [a + i*granule]. [a]
    must be 32-granule (512-byte) aligned and the range in memory
    ([Invalid_argument] otherwise). The sweep kernel's tag read. *)

val count_tags : t -> lo:int -> hi:int -> int
(** Number of set tags in the given physical range (popcount over tag
    words). *)

val fill : t -> lo:int -> hi:int -> int -> unit
(** Fill bytes with a constant, clearing tags. *)

val copy_range : t -> src:int -> dst:int -> len:int -> unit
(** [copy_range m ~src ~dst ~len] copies data bytes, tag bits, and
    capability words — the primitive behind copy-on-write frame duplication.
    All of [src], [dst], and [len] must be granule-aligned, and the two
    ranges must not overlap ([Invalid_argument] otherwise). *)
