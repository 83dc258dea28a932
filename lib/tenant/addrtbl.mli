(** A hash table keyed by allocation bases: the quota ledger's charge
    table ({!Ledger}), which every charge, free and credit probes. A
    binding holds a non-negative int (the ledger packs a charge's size
    and state in it) and a tagged capability.

    Open addressing with linear probing over flat storage: an [int
    array] of keys ([-1] marks a free slot), an [int array] of the bound
    ints, and a byte buffer that holds each capability as the two words
    of {!Cheri.Capability.encode} followed by its address, as tagged
    memory does. The home slot is taken from a multiplicative hash of
    [key lsr 4], and deletion shifts the rest of the probe run back. The
    load factor stays at or below 1/2. The table makes no C call to
    hash, no polymorphic comparison to probe, allocates nothing per
    binding and holds no pointer per binding for the collector to
    trace. Keys must be non-negative. Iteration order is unspecified. *)

type t

val create : int -> t
(** [create n] is an empty table sized for [n] bindings without
    growing. *)

val length : t -> int

val find : t -> int -> int
(** The key's bound int, or [-1] when the key has no binding. *)

val cap : t -> int -> Cheri.Capability.t
(** The key's capability, decoded afresh: {!Cheri.Capability.equal} to
    the one bound. Raises [Not_found] when the key has no binding. *)

val replace : t -> int -> int -> Cheri.Capability.t -> unit
(** [replace t key v c] binds [key] to [v] and [c], replacing any
    binding it had. Raises [Invalid_argument], binding nothing, on a
    negative key or [v], an untagged [c], or a [c] that
    {!Cheri.Capability.encode} rejects. *)

val set : t -> int -> int -> unit
(** [set t key v] rebinds [key]'s int to [v] and keeps its capability.
    Raises [Invalid_argument] on a negative [v] and [Not_found] when the
    key has no binding. *)

val remove : t -> int -> unit
(** Drop the key's binding, if any. *)

val fold : (int -> int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** [fold f t acc] folds [f key v] over the bindings. *)

val capacity : t -> int
(** The slot count, a power of two at least twice {!length}. *)

val home : t -> int -> int
(** The slot where a probe for the key starts, in [\[0, capacity)].
    Keys with the same home collide; a probe run that passes the last
    slot wraps to slot 0. *)
